// Portable reference kernels.  This TU is compiled with the baseline ISA
// and -ffp-contract=off: the arithmetic here (double accumulators,
// ascending-k mul-then-add, zero-skip) is the definition every SIMD table
// must reproduce bit-for-bit.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/quant_rule.h"
#include "kernels/kernels_internal.h"

namespace lp::kernels {

namespace detail {

void gemm_ref_block(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t col_begin, std::int64_t col_end,
                    std::int64_t k, std::int64_t n) {
  const std::int64_t w = col_end - col_begin;
  if (w <= 0 || row_end <= row_begin) return;
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] = bias[col_begin + j];
      }
    } else {
      std::fill(acc.begin(), acc.end(), 0.0);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const float* brow = b + p * n + col_begin;
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] += av * brow[j];
      }
    }
    float* crow = c + i * n + col_begin;
    for (std::int64_t j = 0; j < w; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]);
    }
  }
}

void decode_elems_ref(const PackedCodesView& v, std::int64_t elem_begin,
                      std::int64_t count, float* dst) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = packed_decode_at(v, elem_begin + i);
  }
}

template <ApproxMode M>
void gemm_nt_ref_panel(const float* a, const float* const* br, int w,
                       const float* bias, float* c, std::int64_t rows,
                       std::int64_t j, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n + j;
    for (int l = 0; l < w; ++l) {
      const float* brow = br[l];
      double s = (bias != nullptr) ? bias[j + l] : 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        if constexpr (M == ApproxMode::kPlam) {
          s += plam::mitchell_mul(av, brow[p]);
        } else {
          s += av * brow[p];
        }
      }
      crow[l] = static_cast<float>(s);
    }
  }
}

template void gemm_nt_ref_panel<ApproxMode::kExact>(
    const float*, const float* const*, int, const float*, float*,
    std::int64_t, std::int64_t, std::int64_t, std::int64_t);
template void gemm_nt_ref_panel<ApproxMode::kPlam>(
    const float*, const float* const*, int, const float*, float*,
    std::int64_t, std::int64_t, std::int64_t, std::int64_t);

bool gemm_nt_rows_with(const PackedCodesView& a, const PackedCodesView& b,
                       const float* bias, float* c, const ActEncode* ep,
                       std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t k, std::int64_t n, const NtKernel& kern) {
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0) return true;
  const float* a_block = nullptr;
  if (a.lut == nullptr) {
    a_block = a.floats() + row_begin * k;
  } else {
    float* const dec = tile_scratch(0, rows * k);
    kern.decode(a, row_begin * k, rows * k, dec);
    a_block = dec;
  }
  float* const b_rows =
      b.lut == nullptr ? nullptr : tile_scratch(1, kern.width * k);
  float* const c_block =
      ep == nullptr ? c + row_begin * n : tile_scratch(2, rows * n);
  const float* br[kPanelMax];
  for (std::int64_t j = 0; j < n; j += kern.width) {
    const int w = static_cast<int>(std::min<std::int64_t>(kern.width, n - j));
    for (int l = 0; l < w; ++l) {
      if (b_rows == nullptr) {
        br[l] = b.floats() + (j + l) * k;
      } else {
        kern.decode(b, (j + l) * k, k, b_rows + l * k);
        br[l] = b_rows + l * k;
      }
    }
    kern.panel(a_block, br, w, bias, c_block, rows, j, k, n);
  }
  // Fused epilogue: the finished rows are exactly what the unfused path's
  // tensor would hold; act + encode them so only codes leave the kernel.
  return ep == nullptr ||
         encode_scratch_block(*ep, c_block, row_begin * n, rows * n);
}

bool encode_elem(const ActEncode& ep, float v, std::int64_t e) {
  const float y = act_eval(v, ep.act);
  const auto bits = std::bit_cast<std::uint32_t>(y);
  if (!quant::is_finite_bits(bits)) return false;
  const std::size_t idx = qindex_lookup(ep.qidx, quant::ordered_key(bits));
  packed_code_write(ep.codes, ep.bits, e, static_cast<std::uint32_t>(idx));
  return true;
}

namespace {

// act_eval with the selector hoisted out of the loop: a compile-time act
// folds the switch away, so the relu/relu6 cases vectorize instead of
// re-dispatching per element (same float ops, so same bits either way).
template <int A>
void act_apply(const float* src, float* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = act_eval(src[i], A);
  }
}

void act_apply_dyn(int act, const float* src, float* dst,
                   std::int64_t count) {
  switch (act) {
    case kActRelu: act_apply<kActRelu>(src, dst, count); return;
    case kActRelu6: act_apply<kActRelu6>(src, dst, count); return;
    case kActGelu: act_apply<kActGelu>(src, dst, count); return;
    default: act_apply<kActNone>(src, dst, count); return;
  }
}

// Batched tail of the fused epilogue: nearest-index search over the
// already-activated values through the dispatched table — every table's
// search is pinned bit-identical, so this is a pure throughput choice —
// then code writes.  Pool workers are persistent, so thread_local scratch
// amortizes the index-buffer allocation.
const std::uint32_t* activated_indices(const ActEncode& ep, const float* xs,
                                       std::int64_t count) {
  thread_local std::vector<std::uint32_t> idx;
  idx.resize(static_cast<std::size_t>(count));
  dispatch().nearest_indices(ep.qidx, xs, idx.data(),
                             static_cast<std::size_t>(count));
  return idx.data();
}

bool write_codes(const ActEncode& ep, const std::uint32_t* idx,
                 std::int64_t elem_begin, std::int64_t count) {
  bool ok = true;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint32_t ix = idx[i];
    if (ix == kInvalidIndex) {
      ok = false;  // non-finite: no code, matching encode_elem
      continue;
    }
    packed_code_write(ep.codes, ep.bits, elem_begin + i, ix);
  }
  return ok;
}

bool encode_activated_block(const ActEncode& ep, const float* xs,
                            std::int64_t elem_begin, std::int64_t count) {
  return write_codes(ep, activated_indices(ep, xs, count), elem_begin, count);
}

}  // namespace

bool encode_row_block(const ActEncode& ep, const float* src,
                      std::int64_t elem_begin, std::int64_t count) {
  // src may be a caller's live tensor, not scratch (encode_acts passes
  // one), so the activated values stage in thread-local scratch.
  const float* xs = src;
  if (ep.act != kActNone) {
    thread_local std::vector<float> act_buf;
    act_buf.resize(static_cast<std::size_t>(count));
    act_apply_dyn(ep.act, src, act_buf.data(), count);
    xs = act_buf.data();
  }
  return encode_activated_block(ep, xs, elem_begin, count);
}

bool encode_scratch_block(const ActEncode& ep, float* scratch,
                          std::int64_t elem_begin, std::int64_t count) {
  if (ep.act != kActNone) {
    act_apply_dyn(ep.act, scratch, scratch, count);
  }
  return encode_activated_block(ep, scratch, elem_begin, count);
}

bool conv_tile_finish(const ConvTileSink& sink, const ConvPatchView& x,
                      float* vals, int width, std::int64_t r0,
                      std::int64_t rows, const std::int64_t* dst, int lanes) {
  const std::int64_t plane = x.ho * x.wo;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float bias_v = sink.bias != nullptr ? sink.bias[r0 + r] : 0.0F;
    float* v = vals + r * width;
    for (int l = 0; l < width; ++l) v[l] = v[l] + bias_v;
  }
  if (sink.ep == nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* out = sink.out + (sink.ch_begin + r0 + r) * plane;
      const float* v = vals + r * width;
      for (int l = 0; l < lanes; ++l) out[dst[l]] = v[l];
    }
    return true;
  }
  const ActEncode& ep = *sink.ep;
  const std::int64_t count = rows * width;
  if (ep.act != kActNone) act_apply_dyn(ep.act, vals, vals, count);
  const std::uint32_t* idx = activated_indices(ep, vals, count);
  bool ok = true;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t e0 = (sink.ch_begin + r0 + r) * plane;
    const std::uint32_t* ir = idx + r * width;
    for (int l = 0; l < lanes; ++l) {
      if (ir[l] == kInvalidIndex) {
        ok = false;  // non-finite: no code, matching encode_elem
        continue;
      }
      packed_code_write(ep.codes, ep.bits, e0 + dst[l], ir[l]);
    }
  }
  return ok;
}

void* tile_scratch_bytes(int slot, std::size_t bytes) {
  struct alignas(64) Line {
    std::byte b[64];
  };
  struct Buf {
    std::unique_ptr<Line[]> data;
    std::size_t lines = 0;
  };
  thread_local Buf bufs[4];
  Buf& buf = bufs[slot];
  const std::size_t lines = (bytes + sizeof(Line) - 1) / sizeof(Line);
  if (buf.lines < lines) {
    // Contents need not survive a call, so the old buffer goes first and
    // the new one is exactly the request, left uninitialized: the slot's
    // footprint is its largest request, touched only where written.
    buf.data.reset();
    buf.data = std::make_unique_for_overwrite<Line[]>(lines);
    buf.lines = lines;
  }
  return buf.data.get();
}

void conv_panel_cols(const ConvPatchView& x, std::int64_t cout,
                     std::int64_t c0, int lanes, int width,
                     ConvPanelCols& pc) {
  const std::int64_t plane_out = x.ho * x.wo;
  // Column c0's (b, oy, ox), then step one column per live lane.
  std::int64_t b = c0 / plane_out;
  std::int64_t oy = (c0 % plane_out) / x.wo;
  std::int64_t ox = c0 % x.wo;
  for (int l = 0; l < width; ++l) {
    if (l > 0 && l < lanes && ++ox == x.wo) {
      ox = 0;
      if (++oy == x.ho) {
        oy = 0;
        ++b;
      }
    }
    pc.img[l] = b;
    pc.iy[l] = oy * x.stride - x.padding;
    pc.ix[l] = ox * x.stride - x.padding;
    pc.dst[l] = b * cout * plane_out + oy * x.wo + ox;
  }
}

void conv_gather_panel(const ConvPatchView& x, const ConvPanelCols& pc,
                       int width, float* panel) {
  const PackedCodesView v{x.data, 0, x.bits, x.lut, x.lut_size};
  const float pad = x.pad_value();
  for (std::int64_t cc = 0; cc < x.c_count; ++cc) {
    for (std::int64_t ky = 0; ky < x.kh; ++ky) {
      for (std::int64_t kx = 0; kx < x.kw; ++kx) {
        float* dst = panel + ((cc * x.kh + ky) * x.kw + kx) * width;
        for (int l = 0; l < width; ++l) {
          const std::int64_t iy = pc.iy[l] + ky;
          const std::int64_t ix = pc.ix[l] + kx;
          const bool inside = iy >= 0 && iy < x.h && ix >= 0 && ix < x.w;
          const std::int64_t e =
              ((pc.img[l] * x.c_total + x.c_begin + cc) * x.h + iy) * x.w +
              ix;
          dst[l] = !inside             ? pad
                   : x.lut == nullptr ? x.floats()[e]
                                      : x.lut[packed_code_at(v, e)];
        }
      }
    }
  }
}

ConvRegion conv_region(const ConvPatchView& x, std::int64_t c0,
                       std::int64_t c1) {
  const std::int64_t plane_out = x.ho * x.wo;
  const std::int64_t b0 = c0 / plane_out;
  const std::int64_t b1 = (c1 - 1) / plane_out;
  const std::int64_t oy0 = (c0 % plane_out) / x.wo;
  const std::int64_t oy1 = ((c1 - 1) % plane_out) / x.wo;
  const std::int64_t y_lo =
      std::max<std::int64_t>(0, oy0 * x.stride - x.padding);
  const std::int64_t y_hi = std::min(x.h, oy1 * x.stride - x.padding + x.kh);
  ConvRegion rg;
  rg.f0 = b0 * x.h + y_lo;
  rg.rows = std::max<std::int64_t>(0, b1 * x.h + y_hi - rg.f0);
  rg.x0 = 0;
  rg.row_len = x.w;
  if (b0 == b1 && oy0 == oy1) {
    const std::int64_t x_lo = std::max<std::int64_t>(
        0, (c0 % x.wo) * x.stride - x.padding);
    const std::int64_t x_hi =
        std::min(x.w, ((c1 - 1) % x.wo) * x.stride - x.padding + x.kw);
    rg.x0 = x_lo;
    rg.row_len = std::max<std::int64_t>(0, x_hi - x_lo);
  }
  return rg;
}

void conv_decode_region(const ConvPatchView& x, const ConvRegion& rg,
                        DecodeElemsFn decode, float* region) {
  const PackedCodesView v{x.data, 0, x.bits, x.lut, x.lut_size};
  for (std::int64_t cc = 0; cc < x.c_count; ++cc) {
    float* dst = region + cc * rg.rows * rg.row_len;
    for (std::int64_t f = rg.f0; f < rg.f0 + rg.rows;) {
      const std::int64_t b = f / x.h;
      const std::int64_t iy = f % x.h;
      // Whole rows of one image and channel are contiguous in the stream.
      const std::int64_t run =
          rg.row_len == x.w ? std::min(rg.f0 + rg.rows, (b + 1) * x.h) - f
                            : 1;
      const std::int64_t e =
          ((b * x.c_total + x.c_begin + cc) * x.h + iy) * x.w + rg.x0;
      if (x.lut == nullptr) {
        std::copy_n(x.floats() + e, run * rg.row_len, dst);
      } else {
        decode(v, e, run * rg.row_len, dst);
      }
      dst += run * rg.row_len;
      f += run;
    }
  }
}

void conv_region_lanes(const ConvPatchView& x, const ConvRegion& rg,
                       const ConvPanelCols& pc, int width, std::int32_t* off) {
  for (int l = 0; l < width; ++l) {
    off[l] = static_cast<std::int32_t>(
        (pc.img[l] * x.h + pc.iy[l] - rg.f0) * rg.row_len + pc.ix[l] - rg.x0);
  }
}

void gemm_rows_with(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n, const SliverKernel& kern) {
  const std::int64_t w = kern.width;
  const std::int64_t r = kern.rows;
  const std::int64_t full_cols = n - (n % w);
  const std::int64_t rows = row_end - row_begin;
  if (full_cols > 0 && rows > 0) {
    const std::int64_t sliver = r * k;  // doubles per sliver
    const std::int64_t per_block = std::max<std::int64_t>(
        1, kSliverBlockDoubles / std::max<std::int64_t>(1, sliver));
    const std::int64_t slivers = (rows + r - 1) / r;
    for (std::int64_t s0 = 0; s0 < slivers; s0 += per_block) {
      const std::int64_t nb = std::min(per_block, slivers - s0);
      // The block's slivers, then their zero masks (k bytes each).
      double* const ap =
          tile_scratch<double>(0, nb * sliver + (nb * k + 7) / 8);
      auto* const zm = reinterpret_cast<std::uint8_t*>(ap + nb * sliver);
      const std::int64_t i0 = row_begin + s0 * r;
      const std::int64_t i1 = std::min(row_end, i0 + nb * r);
      for (std::int64_t q = 0; q < nb; ++q) {
        const std::int64_t i = i0 + q * r;
        kern.pack(a + i * k, k, static_cast<int>(std::min(r, i1 - i)), k,
                  ap + q * sliver, zm + q * k);
      }
      // Packing a panel is one pass over k x w floats; it pays once two
      // or more slivers reuse it.  A lone sliver reads B in place (same
      // values, no copy).
      float* const panel = nb >= 2 ? tile_scratch(1, k * w) : nullptr;
      for (std::int64_t j = 0; j < full_cols; j += w) {
        const float* pb = b + j;
        std::int64_t ldb = n;
        if (panel != nullptr) {
          for (std::int64_t p = 0; p < k; ++p) {
            std::memcpy(panel + p * w, b + p * n + j,
                        static_cast<std::size_t>(w) * sizeof(float));
          }
          pb = panel;
          ldb = w;
        }
        for (std::int64_t q = 0; q < nb; ++q) {
          const std::int64_t i = i0 + q * r;
          kern.micro(ap + q * sliver, zm + q * k, pb, ldb,
                     bias != nullptr ? bias + j : nullptr, c + i * n + j, n,
                     static_cast<int>(std::min(r, i1 - i)), k);
        }
      }
    }
  }
  if (full_cols < n) {
    gemm_ref_block(a, b, bias, c, row_begin, row_end, full_cols, n, k, n);
  }
}

bool conv_tile_with(const PackedCodesView& a, const ConvPatchView& x,
                    const ConvTileSink& sink, std::int64_t r0,
                    std::int64_t r1, std::int64_t c0, std::int64_t c1,
                    const SliverKernel& kern) {
  const std::int64_t k = x.c_count * x.kh * x.kw;
  if (r1 <= r0 || c1 <= c0) return true;
  const int w = kern.width;
  const std::int64_t r = kern.rows;
  const std::int64_t panel_floats = k * w;
  const std::int64_t panels = (c1 - c0 + w - 1) / w;
  float* const staged = tile_scratch(1, panels * panel_floats);
  // Slot 2: each panel's output offsets, then one sliver's decoded rows.
  auto* const dst =
      tile_scratch<std::int64_t>(2, panels * w + (r * k + 1) / 2);
  auto* const rows_dec = reinterpret_cast<float*>(dst + panels * w);
  const ConvRegion rg = conv_region(x, c0, c1);
  const bool in_region = rg.floats(x.c_count) <= kConvRegionMaxFloats;
  float* region = nullptr;
  if (in_region) {
    region = tile_scratch(3, rg.floats(x.c_count));
    conv_decode_region(x, rg, kern.decode, region);
  }
  ConvPanelCols pc;
  for (std::int64_t q = 0; q < panels; ++q) {
    const std::int64_t j = c0 + q * w;
    const int lanes = static_cast<int>(std::min<std::int64_t>(w, c1 - j));
    conv_panel_cols(x, sink.cout, j, lanes, w, pc);
    float* const panel = staged + q * panel_floats;
    if (in_region) {
      kern.fill(x, rg, region, pc, lanes, panel);
    } else {
      conv_gather_panel(x, pc, w, panel);
    }
    std::copy_n(pc.dst, w, dst + q * w);
  }
  double* const ap = tile_scratch<double>(0, r * k + (k + 7) / 8);
  auto* const zm = reinterpret_cast<std::uint8_t*>(ap + r * k);
  alignas(64) float vals[kSliverRowsMax * kPanelMax];
  bool ok = true;
  for (std::int64_t i = r0; i < r1; i += r) {
    const int live = static_cast<int>(std::min(r, r1 - i));
    kern.decode(a, i * k, live * k, rows_dec);
    kern.pack(rows_dec, k, live, k, ap, zm);
    for (std::int64_t q = 0; q < panels; ++q) {
      const int lanes =
          static_cast<int>(std::min<std::int64_t>(w, c1 - c0 - q * w));
      kern.micro(ap, zm, staged + q * panel_floats, w, nullptr, vals, w, live,
                 k);
      ok = conv_tile_finish(sink, x, vals, w, i, live, dst + q * w, lanes) &&
           ok;
    }
  }
  return ok;
}

std::size_t qindex_lookup(const QuantIndexView& v, std::uint32_t key) {
  const std::uint32_t b = key >> (32 - v.bucket_bits);
  const std::uint32_t* first = v.keys + v.bucket_lo[b];
  const std::uint32_t* last = v.keys + v.bucket_lo[b + 1];
  // Buckets hold a handful of keys for the paper's narrow formats; a
  // linear scan beats binary-search branches there.  Wide (12+ bit)
  // formats can have dense buckets, so fall back above a small span.
  if (last - first > 16) {
    return static_cast<std::size_t>(std::upper_bound(first, last, key) -
                                    v.keys);
  }
  while (first < last && *first <= key) ++first;
  return static_cast<std::size_t>(first - v.keys);
}

void quantize_apply(const QuantIndexView& v, float* xs,
                    const std::uint32_t* idx, std::size_t n, double& se) {
  for (std::size_t i = 0; i < n; ++i) {
    float& x = xs[i];
    if (idx[i] == kInvalidIndex) {
      // q = NaN poisons the error accumulator, matching the scalar
      // quantize path's behaviour for non-finite inputs.
      const double d = static_cast<double>(x) -
                       std::numeric_limits<double>::quiet_NaN();
      se += d * d;
      x = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const double d = static_cast<double>(x) - v.values_d[idx[i]];
    se += d * d;
    x = v.values_f[idx[i]];
  }
}

}  // namespace detail

namespace {

void gemm_rows_scalar(const float* a, const float* b, const float* bias,
                      float* c, std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t k, std::int64_t n) {
  detail::gemm_ref_block(a, b, bias, c, row_begin, row_end, 0, n, k, n);
}

bool gemm_nt_rows_scalar(const PackedCodesView& a, const PackedCodesView& b,
                         const float* bias, float* c, const ActEncode* ep,
                         std::int64_t row_begin, std::int64_t row_end,
                         std::int64_t k, std::int64_t n) {
  return detail::gemm_nt_rows_with(
      a, b, bias, c, ep, row_begin, row_end, k, n,
      {detail::kPanelMax, detail::decode_elems_ref,
       detail::gemm_nt_ref_panel<ApproxMode::kExact>});
}

bool conv_codes_tile_scalar(const PackedCodesView& a, const ConvPatchView& x,
                            const ConvTileSink& sink, std::int64_t r0,
                            std::int64_t r1, std::int64_t c0,
                            std::int64_t c1) {
  constexpr int kWidth = 16;
  const std::int64_t k = x.c_count * x.kh * x.kw;
  const std::int64_t rows = r1 - r0;
  if (rows <= 0 || c1 <= c0) return true;
  float* const a_block = detail::tile_scratch(0, rows * k);
  detail::decode_elems_ref(a, r0 * k, rows * k, a_block);
  float* const panel = detail::tile_scratch(1, k * kWidth);
  float* const vals = detail::tile_scratch(2, rows * kWidth);
  detail::ConvPanelCols pc;
  bool ok = true;
  for (std::int64_t j = c0; j < c1; j += kWidth) {
    const int lanes = static_cast<int>(std::min<std::int64_t>(kWidth, c1 - j));
    detail::conv_panel_cols(x, sink.cout, j, lanes, kWidth, pc);
    detail::conv_gather_panel(x, pc, kWidth, panel);
    for (std::int64_t r = 0; r < rows; ++r) {
      double acc[kWidth] = {};
      const float* arow = a_block + r * k;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const float* prow = panel + p * kWidth;
        for (int l = 0; l < kWidth; ++l) acc[l] += av * prow[l];
      }
      for (int l = 0; l < kWidth; ++l) {
        vals[r * kWidth + l] = static_cast<float>(acc[l]);
      }
    }
    ok = detail::conv_tile_finish(sink, x, vals, kWidth, r0, rows, pc.dst,
                                  lanes) &&
         ok;
  }
  return ok;
}

double quantize_chunk_scalar(const QuantIndexView& v, float* xs,
                             std::size_t n) {
  double se = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    float& x = xs[i];
    const auto bits = std::bit_cast<std::uint32_t>(x);
    if (!quant::is_finite_bits(bits)) {
      const double d = static_cast<double>(x) -
                       std::numeric_limits<double>::quiet_NaN();
      se += d * d;
      x = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const std::size_t idx = detail::qindex_lookup(v, quant::ordered_key(bits));
    const double d = static_cast<double>(x) - v.values_d[idx];
    se += d * d;
    x = v.values_f[idx];
  }
  return se;
}

void nearest_indices_scalar(const QuantIndexView& v, const float* xs,
                            std::uint32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(xs[i]);
    out[i] = quant::is_finite_bits(bits)
                 ? static_cast<std::uint32_t>(
                       detail::qindex_lookup(v, quant::ordered_key(bits)))
                 : kInvalidIndex;
  }
}

}  // namespace

const KernelTable& scalar_kernels() {
  static constexpr KernelTable kTable{"scalar",
                                      gemm_rows_scalar,
                                      gemm_nt_rows_scalar,
                                      conv_codes_tile_scalar,
                                      quantize_chunk_scalar,
                                      nearest_indices_scalar};
  return kTable;
}

}  // namespace lp::kernels
