// PLAM-style log-domain approximate-multiply kernels (LP_APPROX=plam).
//
// PLAM observes that a posit/LP multiply is an *add* in the log domain:
// treating the fraction field as the fractional part of log2 makes
// log2(2^e (1+f)) ~= e + f (Mitchell's approximation), so the product of
// two decoded operands is reconstructed from the integer+fraction sum
// without a mantissa multiplier.  The approximation always underestimates
// the magnitude; the worst case is fx = fy = 0.5 where
// (1+fx)(1+fy) / (1+fx+fy) = 2.25/2 gives a relative error of 1/9.
// kPlamMaxRelError (kernels.h) pins that bound with a small margin.
//
// PDPU discipline for the dot product: every approximate product is
// accumulated *exactly* in a double accumulator in ascending-k order and
// rounded to float once at the end — the fused dot-product unit
// approximates multiplies, not the accumulation.  The per-element error
// bound therefore composes linearly: |err(dot)| <= kPlamMaxRelError *
// sum_k |a_k * b_k|, which is what the regression test checks.
//
// Scope: the linear-layout GEMM entry only (linear / attention /
// patch-merge layers).  Convolution stays exact — the conv tile never
// routes through this entry point — and non-finite operands fall back to
// the exact product so inf/NaN semantics match the exact path.  The
// entry is the scalar table's body with the reference panel
// instantiated on mitchell_mul: operand staging, loop order, bias
// seeding, zero-skip and the fused epilogue are the exact kernel's own
// code.
#include <cmath>
#include <cstdint>

#include "kernels/kernels_internal.h"

namespace lp::kernels::plam {

double mitchell_mul(double x, double y) {
  if (x == 0.0 || y == 0.0 || !std::isfinite(x) || !std::isfinite(y)) {
    // Exact fallback: zeros keep their sign algebra, non-finite operands
    // keep IEEE semantics (inf * 0 = NaN, etc.) identical to the exact
    // kernels.
    return x * y;
  }
  int ex = 0;
  int ey = 0;
  const double mx = std::frexp(std::fabs(x), &ex);  // mx in [0.5, 1)
  const double my = std::frexp(std::fabs(y), &ey);
  // x = 2^(ex-1) * (1 + fx) with fx = 2*mx - 1 in [0, 1).
  double f = (2.0 * mx - 1.0) + (2.0 * my - 1.0);
  int e = (ex - 1) + (ey - 1);
  if (f >= 1.0) {  // carry out of the fraction field
    f -= 1.0;
    ++e;
  }
  const double mag = std::ldexp(1.0 + f, e);
  return (std::signbit(x) != std::signbit(y)) ? -mag : mag;
}

bool gemm_nt_rows(const PackedCodesView& a, const PackedCodesView& b,
                  const float* bias, float* c, const ActEncode* ep,
                  std::int64_t row_begin, std::int64_t row_end,
                  std::int64_t k, std::int64_t n) {
  return detail::gemm_nt_rows_with(
      a, b, bias, c, ep, row_begin, row_end, k, n,
      {detail::kPanelMax, detail::decode_elems_ref,
       detail::gemm_nt_ref_panel<ApproxMode::kPlam>});
}

}  // namespace lp::kernels::plam
