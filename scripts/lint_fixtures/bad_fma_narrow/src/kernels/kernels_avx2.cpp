#include <immintrin.h>

#include <cmath>

#include "kernels.h"

namespace lp::kernels {
namespace {

// VIOLATION: scalar-double FMA forms in a SIMD table.  Only the packed
// double intrinsics are allowed (both factors widened floats, so the
// product is exact); a std::fma or _sd step is neither vectorized nor
// pinned by that argument.
void gemm_rows_avx2(const float* a, const float* b, float* c, long rows,
                    long k, long n) {
  for (long i = 0; i < rows; ++i) {
    double acc = 0.0;
    __m128d acc_v = _mm_setzero_pd();
    for (long kk = 0; kk < k; ++kk) {
      acc = std::fma(a[i * k + kk], b[kk * n], acc);
      acc_v = _mm_fmadd_sd(_mm_set_sd(a[i * k + kk]), _mm_set_sd(b[kk * n]),
                           acc_v);
    }
    c[i * n] = static_cast<float>(acc + _mm_cvtsd_f64(acc_v));
  }
}

void quantize_chunk_avx2(const float* xs, unsigned* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = static_cast<unsigned>(xs[i]);
}

}  // namespace

const KernelTable* avx2_kernels() {
  static constexpr KernelTable kTable{"avx2", gemm_rows_avx2,
                                      quantize_chunk_avx2};
  return &kTable;
}

}  // namespace lp::kernels
