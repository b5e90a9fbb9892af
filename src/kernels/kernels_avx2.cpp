// AVX2 kernel table.  This is the only TU compiled with -mavx2 -mfma;
// nothing in it executes unless runtime cpuid reports AVX2 and FMA (see
// dispatch.cpp).
//
// Bit-equality with the scalar reference is engineered, not hoped for:
//  * One micro-kernel serves gemm_rows and the conv tile: a 4-row packed
//    A sliver (ap[p * 4 + r] doubles plus a zero-mask byte per k step,
//    see SliverKernel) times an 8-column float panel.  Each output
//    element accumulates in a dedicated double lane, contributions added
//    in ascending-k order with one _mm256_fmadd_pd per step.  Both
//    factors are floats widened to double, so the product is exact and
//    the single rounding of the FMA equals the scalar code's
//    mul-then-add on every non-NaN result.
//  * The scalar path's zero-skip (a == 0 contributes nothing, so an inf or
//    NaN in B under a structural zero never reaches the accumulator) is
//    the sliver's zero mask: a step with no bit set runs all 4 rows
//    unconditionally; otherwise a row whose bit is set is skipped by an
//    ordinary branch, a per-(row, k) predicate identical across the
//    vector lanes of one row.
//  * Packing widens each A float once (a masked gather of the live rows
//    per k step); dead rows of a partial sliver hold +0.0, compute on
//    zeros and are never stored.
//  * Quantization runs two passes per block: a SIMD pass computing nearest
//    indices (a per-lane gather search of the key's bucket), then the
//    shared scalar quantize_apply pass whose element-order error
//    accumulation is the reference code itself.
//  * gemm_rows' edge columns (n % 8) fall through to the reference block
//    helper, which is per-element identical by definition.  The conv tile
//    instead runs a partial last panel at full width (dead lanes repeat a
//    live column, so lanes never mix) and stores only the live lanes.
#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "kernels/kernels_internal.h"

namespace lp::kernels {
namespace {

// ---------------------------------------------------------------------------
// The micro-kernel: one 4-row sliver (see SliverKernel) times an 8-column
// float panel.  4 rows x 8 columns of double accumulators (8 ymm) live in
// registers for the whole k loop; per k step the panel row widens once
// and each row's packed double is broadcast from memory into two FMAs.
// A step whose zero mask is clear runs all 4 rows unconditionally;
// otherwise rows with their bit set are skipped by an ordinary branch,
// a per-(row, k) predicate identical across the lanes of one row — an
// inf or NaN in B under a structural zero never reaches a lane.

constexpr int kRows = 4;

void sliver_micro_avx2(const double* ap, const std::uint8_t* zm,
                       const float* b, std::int64_t ldb, const float* bias,
                       float* c, std::int64_t ldc, int live, std::int64_t k) {
  __m256d acc[kRows][2];
  const __m256d seed0 = bias != nullptr ? _mm256_cvtps_pd(_mm_loadu_ps(bias))
                                        : _mm256_setzero_pd();
  const __m256d seed1 = bias != nullptr
                            ? _mm256_cvtps_pd(_mm_loadu_ps(bias + 4))
                            : _mm256_setzero_pd();
  LP_UNROLL_FULL
  for (int r = 0; r < kRows; ++r) {
    acc[r][0] = seed0;
    acc[r][1] = seed1;
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = b + ldb * p;
    const __m256d bv0 = _mm256_cvtps_pd(_mm_loadu_ps(bp));
    const __m256d bv1 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
    const double* a = ap + p * kRows;
    const unsigned z = zm[p];
    if (z == 0) {
      LP_UNROLL_FULL
      for (int r = 0; r < kRows; ++r) {
        const __m256d av = _mm256_broadcast_sd(a + r);
        acc[r][0] = _mm256_fmadd_pd(av, bv0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_pd(av, bv1, acc[r][1]);
      }
    } else {
      LP_UNROLL_FULL
      for (int r = 0; r < kRows; ++r) {
        if (((z >> r) & 1U) != 0) continue;
        const __m256d av = _mm256_broadcast_sd(a + r);
        acc[r][0] = _mm256_fmadd_pd(av, bv0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_pd(av, bv1, acc[r][1]);
      }
    }
  }
  LP_UNROLL_FULL
  for (int r = 0; r < kRows; ++r) {
    if (r < live) {
      float* crow = c + r * ldc;
      _mm_storeu_ps(crow, _mm256_cvtpd_ps(acc[r][0]));
      _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(acc[r][1]));
    }
  }
}

/// Sliver packing: per k step one masked gather collects the live rows'
/// floats (dead rows read nothing and take +0.0), one widening convert
/// and one compare give the doubles and their zero mask.
void pack_sliver_avx2(const float* src, std::int64_t ld, int live,
                      std::int64_t k, double* ap, std::uint8_t* zm) {
  const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
  const __m128 lm =
      _mm_castsi128_ps(_mm_cmpgt_epi32(_mm_set1_epi32(live), lane));
  const __m128i rows =
      _mm_mullo_epi32(lane, _mm_set1_epi32(static_cast<int>(ld)));
  const __m128 zf = _mm_setzero_ps();
  const __m256d zd = _mm256_setzero_pd();
  const int live_bits = (1 << live) - 1;
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256d v =
        _mm256_cvtps_pd(_mm_mask_i32gather_ps(zf, src + p, rows, lm, 4));
    _mm256_store_pd(ap + p * kRows, v);
    zm[p] = static_cast<std::uint8_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, zd, _CMP_EQ_OQ)) & live_bits);
  }
}

// ---------------------------------------------------------------------------
// Packed-code decode: expand a run of codes into their LUT float values.
//
// The decoded floats are the *same* floats the quantized-weight tensor of
// the float path stores, so everything downstream (cvtps_pd, mul, add) is
// the identical IEEE operation sequence — decode placement cannot affect
// results.  Strategy by code width:
//   * 4-bit: the whole LUT (<= 16 floats) lives in two ymm registers; a
//     pair of cross-lane permutes selected by index bit 3 is an in-register
//     LUT (the pshufb trick, lifted to 32-bit lanes via vpermd/vpermps).
//   * 8-bit: vpgatherdd-style float gather over the <= 256-entry table.
//   * 16-bit: same gather over the <= 65536-entry table.
// Arbitrary element offsets from grouped convolutions need not be
// byte-aligned: a 4-bit run that starts on an odd nibble decodes its first
// element alone, then splits whole bytes into nibbles in registers.

void decode_elems_avx2(const PackedCodesView& v, std::int64_t elem_begin,
                       std::int64_t count, float* dst) {
  std::int64_t i = 0;
  if (v.bits == 4) {
    alignas(32) float lut16[16] = {};
    std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
    const __m256 lo = _mm256_load_ps(lut16);
    const __m256 hi = _mm256_load_ps(lut16 + 8);
    if (count > 0 && ((v.offset + elem_begin) & 1) != 0) {
      dst[0] = packed_decode_at(v, elem_begin);
      i = 1;
    }
    const std::uint8_t* src = v.data + ((v.offset + elem_begin + i) >> 1);
    const __m128i nib = _mm_set1_epi8(0x0F);
    for (; i + 8 <= count; i += 8, src += 4) {
      // 4 bytes hold 8 codes, low nibble first: split and interleave.
      std::int32_t word;
      std::memcpy(&word, src, sizeof(word));
      const __m128i bytes = _mm_cvtsi32_si128(word);
      const __m256i iv = _mm256_cvtepu8_epi32(_mm_unpacklo_epi8(
          _mm_and_si128(bytes, nib),
          _mm_and_si128(_mm_srli_epi16(bytes, 4), nib)));
      const __m256 a = _mm256_permutevar8x32_ps(lo, iv);
      const __m256 b = _mm256_permutevar8x32_ps(hi, iv);
      // Bit 3 of the index picks the upper half; shifted to the sign
      // position it drives blendv's per-lane select.
      const __m256 sel = _mm256_castsi256_ps(_mm256_slli_epi32(iv, 28));
      _mm256_storeu_ps(dst + i, _mm256_blendv_ps(a, b, sel));
    }
  } else if (v.bits == 8) {
    const std::uint8_t* src = v.data + v.offset + elem_begin;
    for (; i + 8 <= count; i += 8) {
      const __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(src + i));
      const __m256i iv = _mm256_cvtepu8_epi32(bytes);
      _mm256_storeu_ps(dst + i, _mm256_i32gather_ps(v.lut, iv, 4));
    }
  } else {
    const std::uint8_t* src = v.data + (v.offset + elem_begin) * 2;
    for (; i + 8 <= count; i += 8) {
      const __m128i words = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(src + i * 2));
      const __m256i iv = _mm256_cvtepu16_epi32(words);
      _mm256_storeu_ps(dst + i, _mm256_i32gather_ps(v.lut, iv, 4));
    }
  }
  for (; i < count; ++i) dst[i] = packed_decode_at(v, elem_begin + i);
}

// ---------------------------------------------------------------------------
// Linear-layout GEMM (B^T [n, k] row-major, either operand floats or
// codes): the shared body stages the operands (see gemm_nt_rows_with);
// this panel runs 8 output columns per step, each column's dot product
// in its own double lane (single chain per element, ascending p),
// sweeping every A row of the block over the panel's 8 B rows — 8
// forward streams, cache-friendly without packing.

void nt_panel_avx2(const float* a, const float* const* br, int w,
                   const float* bias, float* c, std::int64_t rows,
                   std::int64_t j, std::int64_t k, std::int64_t n) {
  if (w < 8) {
    detail::gemm_nt_ref_panel<ApproxMode::kExact>(a, br, w, bias, c, rows, j,
                                                  k, n);
    return;
  }
  // A local copy lets the compiler keep the row pointers in registers;
  // read through `br` they would be reloaded on every k step.
  const float* b[8];
  std::copy_n(br, 8, b);
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    __m256d acc0;
    __m256d acc1;
    if (bias != nullptr) {
      acc0 = _mm256_cvtps_pd(_mm_loadu_ps(bias + j));
      acc1 = _mm256_cvtps_pd(_mm_loadu_ps(bias + j + 4));
    } else {
      acc0 = _mm256_setzero_pd();
      acc1 = _mm256_setzero_pd();
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const __m128 f0 = _mm_setr_ps(b[0][p], b[1][p], b[2][p], b[3][p]);
      const __m128 f1 = _mm_setr_ps(b[4][p], b[5][p], b[6][p], b[7][p]);
      const __m256d avv = _mm256_set1_pd(av);
      acc0 = _mm256_fmadd_pd(avv, _mm256_cvtps_pd(f0), acc0);
      acc1 = _mm256_fmadd_pd(avv, _mm256_cvtps_pd(f1), acc1);
    }
    float* crow = c + i * n + j;
    _mm_storeu_ps(crow, _mm256_cvtpd_ps(acc0));
    _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(acc1));
  }
}

bool gemm_nt_rows_avx2(const PackedCodesView& a, const PackedCodesView& b,
                       const float* bias, float* c, const ActEncode* ep,
                       std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t k, std::int64_t n) {
  return detail::gemm_nt_rows_with(a, b, bias, c, ep, row_begin, row_end, k,
                                   n, {8, decode_elems_avx2, nt_panel_avx2});
}

// ---------------------------------------------------------------------------
// Coded weights, conv layout: the implicit-GEMM tile runs the shared body
// (detail::conv_tile_with) over this table's decode, sliver packing,
// micro-kernel and panel fill.  The staged floats equal the float path's
// operands by the decode contract, so the micro-kernel sees the identical
// IEEE operation sequence.

/// Panel fill from the tile's staged input region: lane l of patch row
/// p = (cc, ky, kx) gathers region[off[l] + cc * rows * row_len + ky *
/// row_len + kx]; padding lanes are masked off the gather and take
/// x.pad_value().
void fill_panel_avx2(const ConvPatchView& x, const detail::ConvRegion& rg,
                     const float* region, const detail::ConvPanelCols& pc,
                     int /*lanes*/, float* panel) {
  alignas(32) std::int32_t off[8];
  alignas(32) std::int32_t iy[8];
  alignas(32) std::int32_t ix[8];
  detail::conv_region_lanes(x, rg, pc, 8, off);
  for (int l = 0; l < 8; ++l) {
    iy[l] = static_cast<std::int32_t>(pc.iy[l]);
    ix[l] = static_cast<std::int32_t>(pc.ix[l]);
  }
  const auto load8 = [](const std::int32_t* v) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(v));
  };
  const __m256i off0 = load8(off);
  const __m256i iy0 = load8(iy);
  const __m256i ix0 = load8(ix);
  const __m256 zv = _mm256_set1_ps(x.pad_value());
  const __m256i neg1 = _mm256_set1_epi32(-1);
  const __m256i vh = _mm256_set1_epi32(static_cast<int>(x.h));
  const __m256i vw = _mm256_set1_epi32(static_cast<int>(x.w));
  const std::int64_t chan = rg.rows * rg.row_len;
  for (std::int64_t ky = 0; ky < x.kh; ++ky) {
    const __m256i y =
        _mm256_add_epi32(iy0, _mm256_set1_epi32(static_cast<int>(ky)));
    const __m256i my = _mm256_and_si256(_mm256_cmpgt_epi32(y, neg1),
                                        _mm256_cmpgt_epi32(vh, y));
    for (std::int64_t kx = 0; kx < x.kw; ++kx) {
      const __m256i xx =
          _mm256_add_epi32(ix0, _mm256_set1_epi32(static_cast<int>(kx)));
      const __m256 m = _mm256_castsi256_ps(_mm256_and_si256(
          my, _mm256_and_si256(_mm256_cmpgt_epi32(xx, neg1),
                               _mm256_cmpgt_epi32(vw, xx))));
      for (std::int64_t cc = 0; cc < x.c_count; ++cc) {
        const std::int64_t o = cc * chan + ky * rg.row_len + kx;
        const __m256i idx =
            _mm256_add_epi32(off0, _mm256_set1_epi32(static_cast<int>(o)));
        _mm256_storeu_ps(panel + ((cc * x.kh + ky) * x.kw + kx) * 8,
                         _mm256_mask_i32gather_ps(zv, region, idx, m, 4));
      }
    }
  }
}

constexpr detail::SliverKernel kSliver{kRows, 8, decode_elems_avx2,
                                      pack_sliver_avx2, sliver_micro_avx2,
                                      fill_panel_avx2};

void gemm_rows_avx2(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n) {
  detail::gemm_rows_with(a, b, bias, c, row_begin, row_end, k, n, kSliver);
}

bool conv_codes_tile_avx2(const PackedCodesView& a, const ConvPatchView& x,
                          const ConvTileSink& sink, std::int64_t r0,
                          std::int64_t r1, std::int64_t c0, std::int64_t c1) {
  return detail::conv_tile_with(a, x, sink, r0, r1, c0, c1, kSliver);
}

// ---------------------------------------------------------------------------
// Quantization: SIMD ordered keys, then a gather search inside each lane's
// bucket.

/// Nearest indices of 8 inputs (lanes outside `live`, a per-lane all-ones
/// mask, are neither read nor written): the AVX-512 search at 8 lanes.
/// Each lane runs a branchless upper_bound over its bucket [lo, hi), one
/// masked key gather per halving, and ends at lo + |{t : keys[t] <=
/// key}| — the index the reference scan returns.
void nearest8(const QuantIndexView& v, const float* xs, std::uint32_t* out,
              __m256i live) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i expm = _mm256_set1_epi32(0x7F800000);
  const auto* lo_tab = reinterpret_cast<const int*>(v.bucket_lo);
  const auto* key_tab = reinterpret_cast<const int*>(v.keys);
  const __m256i bits =
      _mm256_maskload_epi32(reinterpret_cast<const int*>(xs), live);
  // ordered_key, vectorized: negatives (sign-propagating shift gives an
  // all-ones mask) flip entirely, positives set the sign bit.
  const __m256i neg = _mm256_srai_epi32(bits, 31);
  const __m256i key = _mm256_or_si256(_mm256_xor_si256(bits, neg),
                                      _mm256_andnot_si256(neg, sign));
  const __m256i finite = _mm256_andnot_si256(
      _mm256_cmpeq_epi32(_mm256_and_si256(bits, expm), expm), live);
  const __m256i b =
      _mm256_srlv_epi32(key, _mm256_set1_epi32(32 - v.bucket_bits));
  __m256i base = _mm256_i32gather_epi32(lo_tab, b, 4);
  const __m256i hi =
      _mm256_i32gather_epi32(lo_tab, _mm256_add_epi32(b, one), 4);
  __m256i len = _mm256_and_si256(_mm256_sub_epi32(hi, base), finite);
  // Keys compare unsigned: as signed after flipping the sign bit.
  const __m256i key_s = _mm256_xor_si256(key, sign);
  for (__m256i m = _mm256_cmpgt_epi32(len, _mm256_setzero_si256());
       !_mm256_testz_si256(m, m);
       m = _mm256_cmpgt_epi32(len, _mm256_setzero_si256())) {
    const __m256i half = _mm256_srli_epi32(len, 1);
    const __m256i probe = _mm256_add_epi32(base, half);
    const __m256i kp = _mm256_mask_i32gather_epi32(key, key_tab, probe, m, 4);
    const __m256i le = _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_xor_si256(kp, sign), key_s), m);
    base = _mm256_blendv_epi8(base, _mm256_add_epi32(probe, one), le);
    len = _mm256_blendv_epi8(
        half, _mm256_sub_epi32(_mm256_sub_epi32(len, half), one), le);
  }
  const __m256i idx = _mm256_blendv_epi8(
      _mm256_set1_epi32(static_cast<int>(kInvalidIndex)), base, finite);
  _mm256_maskstore_epi32(reinterpret_cast<int*>(out), live, idx);
}

void nearest_indices_avx2(const QuantIndexView& v, const float* xs,
                          std::uint32_t* out, std::size_t n) {
  const __m256i all = _mm256_set1_epi32(-1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) nearest8(v, xs + i, out + i, all);
  if (i < n) {
    // Lane l is live iff l < n - i.
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    nearest8(v, xs + i, out + i,
             _mm256_cmpgt_epi32(
                 _mm256_set1_epi32(static_cast<int>(n - i)), lane));
  }
}

double quantize_chunk_avx2(const QuantIndexView& v, float* xs,
                           std::size_t n) {
  // Two passes per block: SIMD index computation, then the shared scalar
  // apply pass continuing one element-order error accumulator — the same
  // addition sequence as the single-pass scalar kernel.
  constexpr std::size_t kBlock = 512;
  std::uint32_t idx[kBlock];
  double se = 0.0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    nearest_indices_avx2(v, xs + base, idx, len);
    detail::quantize_apply(v, xs + base, idx, len, se);
  }
  return se;
}

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX2 is defined).
const KernelTable* avx2_kernels_impl() {
  static constexpr KernelTable kTable{"avx2",
                                      gemm_rows_avx2,
                                      gemm_nt_rows_avx2,
                                      conv_codes_tile_avx2,
                                      quantize_chunk_avx2,
                                      nearest_indices_avx2};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // defined(__AVX2__) && defined(__FMA__)
