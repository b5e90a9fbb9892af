// AVX-512 kernel table.  This is the only TU compiled with
// -mavx512f/-mavx512bw/-mavx512vl; nothing in it executes unless runtime
// cpuid reports all three extensions (see dispatch.cpp).
//
// The bit-equality engineering mirrors kernels_avx2.cpp, widened to 16
// float lanes:
//  * GEMM accumulates each output element in a dedicated double lane
//    (two zmm registers per 16 columns), contributions added in
//    ascending-k order with one _mm512_fmadd_pd per step.  Both factors
//    are floats widened to double, so their product (at most 48
//    significant bits, exponent well inside double range) is exact: the
//    fused multiply-add rounds once where the scalar mul-then-add rounds
//    twice, but its first rounding is exact, so every non-NaN result is
//    the same (which input NaN's payload survives is not pinned).
//  * The zero-skip of A entries stays an ordinary branch: it is a
//    per-(row, k) predicate identical across the 16 lanes of one row, so
//    an inf or NaN in B under a structural zero never reaches any lane.
//  * 4-bit LUT decode holds the entire table (<= 16 floats) in a single
//    zmm register; _mm512_permutexvar_ps is a full 16-entry in-register
//    lookup, so no blend tree is needed.  8/16-bit codes widen to dword
//    indices and gather from the table.
//  * Quantization searches 16 lanes at once: each lane gathers its
//    bucket's bounds and halves the bucket with masked key gathers and a
//    native unsigned compare (_mm512_cmp_epu32_mask, no sign-bias xor),
//    ending at the count of boundary keys <= its key — the reference
//    scan's index by construction.
//  * Edge tiles (rows % 4, columns % 16) fall through to the reference
//    block helpers, which are per-element identical by definition.
//    The conv tile kernel instead runs a partial last panel at full
//    width (dead lanes repeat a live column, so lanes never mix) and
//    stores only the live lanes.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/kernels_internal.h"

namespace lp::kernels {
namespace {

// ---------------------------------------------------------------------------
// GEMM (B row-major): cache-blocked, register-tiled micro-kernel.
// R rows x 16 columns of double accumulators live in zmm registers for
// the whole k loop.  `panel_stride` is 16 for a packed panel and n for
// reading B in place — identical loads either way.

template <int R>
void gemm_micro(const float* a, const float* panel, std::int64_t panel_stride,
                const float* bias, float* c, std::int64_t i, std::int64_t j,
                std::int64_t k, std::int64_t n) {
  __m512d acc[R][2];
  if (bias != nullptr) {
    const __m512d b0 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j));
    const __m512d b1 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j + 8));
    for (int r = 0; r < R; ++r) {
      acc[r][0] = b0;
      acc[r][1] = b1;
    }
  } else {
    const __m512d z = _mm512_setzero_pd();
    for (int r = 0; r < R; ++r) {
      acc[r][0] = z;
      acc[r][1] = z;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = panel + panel_stride * p;
    const __m512d bv0 = _mm512_cvtps_pd(_mm256_loadu_ps(bp));
    const __m512d bv1 = _mm512_cvtps_pd(_mm256_loadu_ps(bp + 8));
    for (int r = 0; r < R; ++r) {
      const double av = a[(i + r) * k + p];
      if (av == 0.0) continue;
      const __m512d avv = _mm512_set1_pd(av);
      acc[r][0] = _mm512_fmadd_pd(avv, bv0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(avv, bv1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i + r) * n + j;
    _mm256_storeu_ps(crow, _mm512_cvtpd_ps(acc[r][0]));
    _mm256_storeu_ps(crow + 8, _mm512_cvtpd_ps(acc[r][1]));
  }
}

void gemm_rows_avx512(const float* a, const float* b, const float* bias,
                      float* c, std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t k, std::int64_t n) {
  const std::int64_t full_cols = n - (n % 16);
  const std::int64_t rows = row_end - row_begin;
  // Pack only when enough row tiles amortize the k x 16 copy (same
  // heuristic and threshold as the AVX2 table).
  const bool pack = rows >= 8;
  if (full_cols > 0 && rows > 0) {
    std::vector<float> panel(pack ? static_cast<std::size_t>(k) * 16 : 0);
    for (std::int64_t j = 0; j < full_cols; j += 16) {
      const float* pnl = b + j;
      std::int64_t stride = n;
      if (pack) {
        float* dst = panel.data();
        const float* src = b + j;
        for (std::int64_t p = 0; p < k; ++p, dst += 16, src += n) {
          std::memcpy(dst, src, 16 * sizeof(float));
        }
        pnl = panel.data();
        stride = 16;
      }
      std::int64_t i = row_begin;
      for (; i + 4 <= row_end; i += 4) {
        gemm_micro<4>(a, pnl, stride, bias, c, i, j, k, n);
      }
      switch (row_end - i) {
        case 3: gemm_micro<3>(a, pnl, stride, bias, c, i, j, k, n); break;
        case 2: gemm_micro<2>(a, pnl, stride, bias, c, i, j, k, n); break;
        case 1: gemm_micro<1>(a, pnl, stride, bias, c, i, j, k, n); break;
        default: break;
      }
    }
  }
  if (full_cols < n) {
    detail::gemm_ref_block(a, b, bias, c, row_begin, row_end, full_cols, n, k,
                           n);
  }
}

// ---------------------------------------------------------------------------
// Packed-code decode, 16 elements per step.  The decoded floats are the
// same floats the float path's quantized-weight tensor stores, so decode
// placement cannot affect results (see kernels_avx2.cpp for the full
// argument).  Nibble extraction stays scalar — grouped-convolution slices
// start at arbitrary element offsets that are not byte-aligned.

void decode_elems_avx512(const PackedCodesView& v, std::int64_t elem_begin,
                         std::int64_t count, float* dst) {
  std::int64_t i = 0;
  if (v.bits == 4) {
    alignas(64) float lut16[16] = {};
    std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
    // The whole 4-bit table fits one zmm; permutexvar is a full 16-entry
    // in-register LUT (no cross-half blend needed as with 8-lane AVX2).
    const __m512 table = _mm512_load_ps(lut16);
    for (; i + 16 <= count; i += 16) {
      alignas(64) std::uint32_t idx[16];
      for (int l = 0; l < 16; ++l) {
        idx[l] = packed_code_at(v, elem_begin + i + l);
      }
      const __m512i iv = _mm512_load_si512(idx);
      _mm512_storeu_ps(dst + i, _mm512_permutexvar_ps(iv, table));
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
// Coded weights, conv layout: the implicit-GEMM tile.  The weight rows
// are LUT-decoded once and the input region the tile reads is staged
// once (LUT-decoded codes, or copied floats); then each 16-column panel
// is filled from the region (padding lanes take +0.0f) and every tile
// row sweeps it with gemm_micro — the same loads and IEEE operation
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

bool conv_codes_tile_avx512(const PackedCodesView& a,
                            const ConvPatchView& x, const ConvTileSink& sink,
                            std::int64_t r0, std::int64_t r1, std::int64_t c0,
                            std::int64_t c1) {
  const std::int64_t k = x.c_count * x.kh * x.kw;
  const std::int64_t rows = r1 - r0;
  if (rows <= 0 || c1 <= c0) return true;
  float* const a_block = detail::tile_scratch(0, rows * k);
  decode_elems_avx512(a, r0 * k, rows * k, a_block);
  float* const panel = detail::tile_scratch(1, k * 16);
  float* const vals = detail::tile_scratch(2, rows * 16);
  const detail::ConvRegion rg = detail::conv_region(x, c0, c1);
  const bool staged = rg.floats(x.c_count) <= detail::kConvRegionMaxFloats;
  float* region = nullptr;
  if (staged) {
    region = detail::tile_scratch(3, rg.floats(x.c_count));
    detail::conv_decode_region(x, rg, decode_elems_avx512, region);
  }
  detail::ConvPanelCols pc;
  bool ok = true;
  for (std::int64_t j = c0; j < c1; j += 16) {
    const int lanes = static_cast<int>(std::min<std::int64_t>(16, c1 - j));
    detail::conv_panel_cols(x, sink.cout, j, lanes, 16, pc);
    if (staged) {
      fill_panel_avx512(x, rg, region, pc, lanes, panel);
    } else {
      detail::conv_gather_panel(x, pc, 16, panel);
    }
    // 8-row tiles: 16 zmm accumulators amortize each panel row's two
    // float->double conversions over twice the rows of the 4-row tile.
    std::int64_t i = 0;
    for (; i + 8 <= rows; i += 8) {
      gemm_micro<8>(a_block, panel, 16, nullptr, vals, i, 0, k, 16);
    }
    if (rows - i >= 4) {
      gemm_micro<4>(a_block, panel, 16, nullptr, vals, i, 0, k, 16);
      i += 4;
    }
    switch (rows - i) {
      case 3: gemm_micro<3>(a_block, panel, 16, nullptr, vals, i, 0, k, 16); break;
      case 2: gemm_micro<2>(a_block, panel, 16, nullptr, vals, i, 0, k, 16); break;
      case 1: gemm_micro<1>(a_block, panel, 16, nullptr, vals, i, 0, k, 16); break;
      default: break;
    }
    ok = detail::conv_tile_finish(sink, x, vals, 16, r0, rows, pc, lanes) &&
         ok;
  }
  return ok;
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
