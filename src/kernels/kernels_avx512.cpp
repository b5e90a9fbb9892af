// AVX-512 kernel table.  This is the only TU compiled with
// -mavx512f/-mavx512bw/-mavx512vl; nothing in it executes unless runtime
// cpuid reports all three extensions (see dispatch.cpp).
//
// The bit-equality engineering mirrors kernels_avx2.cpp, widened to 16
// float lanes:
//  * One micro-kernel serves gemm_rows and the conv tile: an 8-row packed
//    A sliver (ap[p * 8 + r] doubles plus a zero-mask byte per k step,
//    see SliverKernel) times a 16-column float panel.  Each output
//    element accumulates in a dedicated double lane (two zmm registers
//    per sliver row), contributions added in ascending-k order with one
//    _mm512_fmadd_pd per step.  Both factors are floats widened to
//    double, so their product (at most 48 significant bits, exponent well
//    inside double range) is exact: the fused multiply-add rounds once
//    where the scalar mul-then-add rounds twice, but its first rounding
//    is exact, so every non-NaN result is the same (which input NaN's
//    payload survives is not pinned).
//  * The zero-skip of A entries is the sliver's zero mask: a step with no
//    bit set runs all 8 rows unconditionally; otherwise each row's FMAs
//    are masked off as a whole (a per-(row, k) predicate identical across
//    the 16 lanes of one row), so an inf or NaN in B under a structural
//    zero never reaches any lane.
//  * Packing widens each A float once: a masked gather per k step
//    collects the sliver's live rows, one convert and one compare give
//    the doubles and the mask.  Dead rows of a partial sliver hold +0.0,
//    compute on zeros and are never stored.
//  * 4-bit LUT decode holds the entire table (<= 16 floats) in a single
//    zmm register; _mm512_permutexvar_ps is a full 16-entry in-register
//    lookup, so no blend tree is needed.  8/16-bit codes widen to dword
//    indices and gather from the table.
//  * Quantization searches 16 lanes at once: each lane gathers its
//    bucket's bounds and halves the bucket with masked key gathers and a
//    native unsigned compare (_mm512_cmp_epu32_mask, no sign-bias xor),
//    ending at the count of boundary keys <= its key — the reference
//    scan's index by construction.
//  * gemm_rows' edge columns (n % 16) fall through to the reference block
//    helper, which is per-element identical by definition.  The conv tile
//    instead runs a partial last panel at full width (dead lanes repeat a
//    live column, so lanes never mix) and stores only the live lanes.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "kernels/kernels_internal.h"

namespace lp::kernels {
namespace {

// ---------------------------------------------------------------------------
// The micro-kernel: one 8-row sliver (see SliverKernel) times a 16-column
// float panel.  8 rows x 16 columns of double accumulators (16 zmm) live
// in registers for the whole k loop; per k step the panel row widens
// once and each row's packed double is broadcast from memory into two
// FMAs.  A step whose zero mask is clear runs all 8 rows unconditionally;
// otherwise each row's FMAs are masked off (all 8 lanes at once) when its
// bit is set, which leaves the accumulator untouched exactly as the
// reference's skip does — an inf or NaN in B under a structural zero
// never reaches a lane.

constexpr int kRows = 8;

void sliver_micro_avx512(const double* ap, const std::uint8_t* zm,
                         const float* b, std::int64_t ldb, const float* bias,
                         float* c, std::int64_t ldc, int live,
                         std::int64_t k) {
  __m512d acc[kRows][2];
  const __m512d seed0 = bias != nullptr
                            ? _mm512_cvtps_pd(_mm256_loadu_ps(bias))
                            : _mm512_setzero_pd();
  const __m512d seed1 = bias != nullptr
                            ? _mm512_cvtps_pd(_mm256_loadu_ps(bias + 8))
                            : _mm512_setzero_pd();
  LP_UNROLL_FULL
  for (int r = 0; r < kRows; ++r) {
    acc[r][0] = seed0;
    acc[r][1] = seed1;
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = b + ldb * p;
    const __m512d bv0 = _mm512_cvtps_pd(_mm256_loadu_ps(bp));
    const __m512d bv1 = _mm512_cvtps_pd(_mm256_loadu_ps(bp + 8));
    const double* a = ap + p * kRows;
    const unsigned z = zm[p];
    if (z == 0) {
      LP_UNROLL_FULL
      for (int r = 0; r < kRows; ++r) {
        const __m512d av = _mm512_set1_pd(a[r]);
        acc[r][0] = _mm512_fmadd_pd(av, bv0, acc[r][0]);
        acc[r][1] = _mm512_fmadd_pd(av, bv1, acc[r][1]);
      }
    } else {
      LP_UNROLL_FULL
      for (int r = 0; r < kRows; ++r) {
        // All-ones for a live nonzero entry, 0 for a skipped one.
        const auto m = static_cast<__mmask8>(((z >> r) & 1U) - 1U);
        const __m512d av = _mm512_set1_pd(a[r]);
        acc[r][0] = _mm512_mask3_fmadd_pd(av, bv0, acc[r][0], m);
        acc[r][1] = _mm512_mask3_fmadd_pd(av, bv1, acc[r][1], m);
      }
    }
  }
  LP_UNROLL_FULL
  for (int r = 0; r < kRows; ++r) {
    if (r < live) {
      float* crow = c + r * ldc;
      _mm256_storeu_ps(crow, _mm512_cvtpd_ps(acc[r][0]));
      _mm256_storeu_ps(crow + 8, _mm512_cvtpd_ps(acc[r][1]));
    }
  }
}

/// Sliver packing: per k step one masked gather collects the live rows'
/// floats (dead rows read nothing and take +0.0), one widening convert
/// and one compare give the doubles and their zero mask.
void pack_sliver_avx512(const float* src, std::int64_t ld, int live,
                        std::int64_t k, double* ap, std::uint8_t* zm) {
  const auto lm = static_cast<__mmask8>((1U << live) - 1U);
  const __m256i rows = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(ld)));
  const __m256 zf = _mm256_setzero_ps();
  const __m512d zd = _mm512_setzero_pd();
  for (std::int64_t p = 0; p < k; ++p) {
    const __m512d v = _mm512_cvtps_pd(
        _mm256_mmask_i32gather_ps(zf, lm, rows, src + p, 4));
    _mm512_store_pd(ap + p * kRows, v);
    zm[p] = _mm512_mask_cmp_pd_mask(lm, v, zd, _CMP_EQ_OQ);
  }
}

// ---------------------------------------------------------------------------
// Packed-code decode, 16 elements per step.  The decoded floats are the
// same floats the float path's quantized-weight tensor stores, so decode
// placement cannot affect results (see kernels_avx2.cpp for the full
// argument).  Grouped-convolution slices start at arbitrary element
// offsets, so a 4-bit run that starts on an odd nibble decodes its first
// element alone; the rest is byte-aligned.

void decode_elems_avx512(const PackedCodesView& v, std::int64_t elem_begin,
                         std::int64_t count, float* dst) {
  std::int64_t i = 0;
  if (v.bits == 4) {
    alignas(64) float lut16[16] = {};
    std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
    // The whole 4-bit table fits one zmm; permutexvar is a full 16-entry
    // in-register LUT (no cross-half blend needed as with 8-lane AVX2).
    const __m512 table = _mm512_load_ps(lut16);
    if (count > 0 && ((v.offset + elem_begin) & 1) != 0) {
      dst[0] = packed_decode_at(v, elem_begin);
      i = 1;
    }
    const std::uint8_t* src = v.data + ((v.offset + elem_begin + i) >> 1);
    const __m128i nib = _mm_set1_epi8(0x0F);
    for (; i + 16 <= count; i += 16, src += 8) {
      // 8 bytes hold 16 codes, low nibble first: split and interleave.
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src));
      const __m128i codes = _mm_unpacklo_epi8(
          _mm_and_si128(bytes, nib),
          _mm_and_si128(_mm_srli_epi16(bytes, 4), nib));
      _mm512_storeu_ps(dst + i, _mm512_permutexvar_ps(
                                    _mm512_cvtepu8_epi32(codes), table));
    }
  } else if (v.bits == 8) {
    const std::uint8_t* src = v.data + v.offset + elem_begin;
    for (; i + 16 <= count; i += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m512i iv = _mm512_cvtepu8_epi32(bytes);
      _mm512_storeu_ps(dst + i, _mm512_i32gather_ps(iv, v.lut, 4));
    }
  } else {
    const std::uint8_t* src = v.data + (v.offset + elem_begin) * 2;
    for (; i + 16 <= count; i += 16) {
      const __m256i words =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 2));
      const __m512i iv = _mm512_cvtepu16_epi32(words);
      _mm512_storeu_ps(dst + i, _mm512_i32gather_ps(iv, v.lut, 4));
    }
  }
  for (; i < count; ++i) dst[i] = packed_decode_at(v, elem_begin + i);
}

// ---------------------------------------------------------------------------
// Linear-layout GEMM (B^T [n, k] row-major, either operand floats or
// codes): the shared body stages the operands (see gemm_nt_rows_with);
// this panel runs 16 output columns per step, each column's dot product
// in its own double lane, sweeping every A row of the block over the
// panel's 16 B rows.

void nt_panel_avx512(const float* a, const float* const* br, int w,
                     const float* bias, float* c, std::int64_t rows,
                     std::int64_t j, std::int64_t k, std::int64_t n) {
  if (w < 16) {
    detail::gemm_nt_ref_panel<ApproxMode::kExact>(a, br, w, bias, c, rows, j,
                                                  k, n);
    return;
  }
  // A local copy lets the compiler keep the row pointers in registers;
  // read through `br` they would be reloaded on every k step.
  const float* b[16];
  std::copy_n(br, 16, b);
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    __m512d acc0;
    __m512d acc1;
    if (bias != nullptr) {
      acc0 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j));
      acc1 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j + 8));
    } else {
      acc0 = _mm512_setzero_pd();
      acc1 = _mm512_setzero_pd();
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const __m256 f0 =
          _mm256_setr_ps(b[0][p], b[1][p], b[2][p], b[3][p], b[4][p],
                         b[5][p], b[6][p], b[7][p]);
      const __m256 f1 =
          _mm256_setr_ps(b[8][p], b[9][p], b[10][p], b[11][p], b[12][p],
                         b[13][p], b[14][p], b[15][p]);
      const __m512d avv = _mm512_set1_pd(av);
      acc0 = _mm512_fmadd_pd(avv, _mm512_cvtps_pd(f0), acc0);
      acc1 = _mm512_fmadd_pd(avv, _mm512_cvtps_pd(f1), acc1);
    }
    float* crow = c + i * n + j;
    _mm256_storeu_ps(crow, _mm512_cvtpd_ps(acc0));
    _mm256_storeu_ps(crow + 8, _mm512_cvtpd_ps(acc1));
  }
}

bool gemm_nt_rows_avx512(const PackedCodesView& a, const PackedCodesView& b,
                         const float* bias, float* c, const ActEncode* ep,
                         std::int64_t row_begin, std::int64_t row_end,
                         std::int64_t k, std::int64_t n) {
  return detail::gemm_nt_rows_with(a, b, bias, c, ep, row_begin, row_end, k,
                                   n, {16, decode_elems_avx512,
                                       nt_panel_avx512});
}

// ---------------------------------------------------------------------------
// Coded weights, conv layout: the implicit-GEMM tile runs the shared body
// (detail::conv_tile_with) over this table's decode, sliver packing,
// micro-kernel and panel fill — the same loads and IEEE operation
// sequence as the float conv's GEMM over decoded operands.

/// 16 int64 lanes truncated to int32 (exact for the coordinates of any
/// input the conv can address).
__m512i narrow_lanes(const std::int64_t* v) {
  return _mm512_inserti64x4(
      _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_loadu_si512(v))),
      _mm512_cvtepi64_epi32(_mm512_loadu_si512(v + 8)), 1);
}

/// Panel fill from the tile's staged input region: lane l of patch row
/// p = (cc, ky, kx) reads region[off[l] + cc * rows * row_len + ky *
/// row_len + kx], or x.pad_value() where the position is padding.  When a
/// panel's live lanes sit in one output row of a stride-1 conv their
/// reads are consecutive, and one masked load (masked-off lanes are never
/// accessed) replaces the gather.
void fill_panel_avx512(const ConvPatchView& x, const detail::ConvRegion& rg,
                       const float* region, const detail::ConvPanelCols& pc,
                       int lanes, float* panel) {
  alignas(64) std::int32_t off[16];
  detail::conv_region_lanes(x, rg, pc, 16, off);
  const __m512i off0 = _mm512_load_si512(off);
  const __m512 zv = _mm512_set1_ps(x.pad_value());
  const __m512i vh = _mm512_set1_epi32(static_cast<int>(x.h));
  const __m512i vw = _mm512_set1_epi32(static_cast<int>(x.w));
  const __m512i iy0 = narrow_lanes(pc.iy);
  const __m512i ix0 = narrow_lanes(pc.ix);
  const __mmask16 live =
      static_cast<__mmask16>(lanes >= 16 ? 0xFFFFU : (1U << lanes) - 1U);
  // Stride 1: lane 0's output column is ox = ix + padding.
  const bool row_run =
      x.stride == 1 && pc.ix[0] + x.padding + lanes <= x.wo;
  const auto base = reinterpret_cast<std::uintptr_t>(region);
  const std::int64_t chan = rg.rows * rg.row_len;
  for (std::int64_t ky = 0; ky < x.kh; ++ky) {
    const __mmask16 my = _mm512_cmp_epu32_mask(
        _mm512_add_epi32(iy0, _mm512_set1_epi32(static_cast<int>(ky))), vh,
        _MM_CMPINT_LT);
    for (std::int64_t kx = 0; kx < x.kw; ++kx) {
      const __m512i xx =
          _mm512_add_epi32(ix0, _mm512_set1_epi32(static_cast<int>(kx)));
      const __mmask16 m = my & _mm512_cmp_epu32_mask(xx, vw, _MM_CMPINT_LT);
      for (std::int64_t cc = 0; cc < x.c_count; ++cc) {
        const std::int64_t o = cc * chan + ky * rg.row_len + kx;
        __m512 v;
        if (row_run) {
          // Formed as an integer: lane 0 may sit before the region (it
          // is masked off then).
          const std::uintptr_t addr =
              base + static_cast<std::uintptr_t>((off[0] + o) * 4);
          v = _mm512_mask_loadu_ps(zv, m & live,
                                   reinterpret_cast<const void*>(addr));
        } else {
          v = _mm512_mask_i32gather_ps(
              zv, m,
              _mm512_add_epi32(off0, _mm512_set1_epi32(static_cast<int>(o))),
              region, 4);
        }
        _mm512_storeu_ps(panel + ((cc * x.kh + ky) * x.kw + kx) * 16, v);
      }
    }
  }
}

constexpr detail::SliverKernel kSliver{kRows, 16, decode_elems_avx512,
                                      pack_sliver_avx512, sliver_micro_avx512,
                                      fill_panel_avx512};

void gemm_rows_avx512(const float* a, const float* b, const float* bias,
                      float* c, std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t k, std::int64_t n) {
  detail::gemm_rows_with(a, b, bias, c, row_begin, row_end, k, n, kSliver);
}

bool conv_codes_tile_avx512(const PackedCodesView& a,
                            const ConvPatchView& x, const ConvTileSink& sink,
                            std::int64_t r0, std::int64_t r1, std::int64_t c0,
                            std::int64_t c1) {
  return detail::conv_tile_with(a, x, sink, r0, r1, c0, c1, kSliver);
}

// ---------------------------------------------------------------------------
// Quantization: SIMD ordered keys, then a gather search inside each lane's
// bucket.

/// Nearest indices of 16 inputs (lanes outside `live` are neither read
/// nor written).  Each lane gathers its bucket's bounds [lo, hi) and runs
/// a branchless upper_bound there, one masked key gather per halving:
/// keys[base + half] <= key moves base past the probe, otherwise the
/// range shrinks to its lower half.  A lane leaves once its range is
/// empty, at base = lo + |{t : keys[t] <= key}| since the keys ascend —
/// the index the reference scan returns.  The loop runs ceil(log2(span +
/// 1)) steps for the longest bucket among the 16 lanes: one step for the
/// paper's 4/8-bit tables, a handful for dense 12/16-bit ones.
void nearest16(const QuantIndexView& v, const float* xs, std::uint32_t* out,
               __mmask16 live) {
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i bits = _mm512_maskz_loadu_epi32(live, xs);
  // ordered_key, vectorized: negatives (sign-propagating shift gives an
  // all-ones mask) flip entirely, positives set the sign bit.
  const __m512i neg = _mm512_srai_epi32(bits, 31);
  const __m512i key = _mm512_or_epi32(
      _mm512_xor_epi32(bits, neg),
      _mm512_andnot_epi32(neg,
                          _mm512_set1_epi32(static_cast<int>(0x80000000U))));
  const __m512i expm = _mm512_set1_epi32(0x7F800000);
  const __mmask16 finite = _mm512_mask_cmpneq_epi32_mask(
      live, _mm512_and_epi32(bits, expm), expm);
  const __m512i b =
      _mm512_srlv_epi32(key, _mm512_set1_epi32(32 - v.bucket_bits));
  __m512i base = _mm512_i32gather_epi32(b, v.bucket_lo, 4);
  const __m512i hi =
      _mm512_i32gather_epi32(_mm512_add_epi32(b, one), v.bucket_lo, 4);
  __m512i len = _mm512_maskz_sub_epi32(finite, hi, base);
  for (__mmask16 m = _mm512_test_epi32_mask(len, len); m != 0;
       m = _mm512_test_epi32_mask(len, len)) {
    const __m512i half = _mm512_srli_epi32(len, 1);
    const __m512i probe = _mm512_add_epi32(base, half);
    const __m512i kp = _mm512_mask_i32gather_epi32(key, m, probe, v.keys, 4);
    const __mmask16 le = _mm512_mask_cmp_epu32_mask(m, kp, key, _MM_CMPINT_LE);
    base = _mm512_mask_add_epi32(base, le, probe, one);
    len = _mm512_mask_sub_epi32(half, le, _mm512_sub_epi32(len, half),
                                one);
  }
  _mm512_mask_storeu_epi32(
      out, live,
      _mm512_mask_blend_epi32(
          finite, _mm512_set1_epi32(static_cast<int>(kInvalidIndex)), base));
}

void nearest_indices_avx512(const QuantIndexView& v, const float* xs,
                            std::uint32_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) nearest16(v, xs + i, out + i, 0xFFFF);
  if (i < n) {
    nearest16(v, xs + i, out + i,
              static_cast<__mmask16>((1U << (n - i)) - 1U));
  }
}

double quantize_chunk_avx512(const QuantIndexView& v, float* xs,
                             std::size_t n) {
  // Two passes per block: SIMD index computation, then the shared scalar
  // apply pass continuing one element-order error accumulator — the same
  // addition sequence as the single-pass scalar kernel.
  constexpr std::size_t kBlock = 512;
  std::uint32_t idx[kBlock];
  double se = 0.0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    nearest_indices_avx512(v, xs + base, idx, len);
    detail::quantize_apply(v, xs + base, idx, len, se);
  }
  return se;
}

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX512 is defined).
const KernelTable* avx512_kernels_impl() {
  static constexpr KernelTable kTable{"avx512",
                                      gemm_rows_avx512,
                                      gemm_nt_rows_avx512,
                                      conv_codes_tile_avx512,
                                      quantize_chunk_avx512,
                                      nearest_indices_avx512};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // AVX512F && AVX512BW && AVX512VL
