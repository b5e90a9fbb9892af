// Internals shared between the kernel translation units.  The reference
// block helpers live in kernels_scalar.cpp (compiled WITHOUT -mavx2) and
// are called by the SIMD kernels for edge tiles; keeping them out-of-line
// in a baseline-ISA TU guarantees the compiler cannot re-vectorize or
// contract them differently per caller.
#pragma once

#include "kernels/kernels.h"

namespace lp::kernels::detail {

/// Reference GEMM over the sub-block rows [row_begin, row_end) x columns
/// [col_begin, col_end): per output element a double accumulator seeded
/// from bias, contributions added in ascending-k order with zero A entries
/// skipped.  Exactly the seed's arithmetic sequence — the definition the
/// SIMD tiles must match bit-for-bit.
void gemm_ref_block(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t col_begin, std::int64_t col_end,
                    std::int64_t k, std::int64_t n);

/// Decode function of a table: dst[i] = lut[code at elem_begin + i] for
/// i in [0, count), reading exactly those codes.
using DecodeElemsFn = void (*)(const PackedCodesView& v,
                               std::int64_t elem_begin, std::int64_t count,
                               float* dst);

/// The reference decode (packed_decode_at per element).
void decode_elems_ref(const PackedCodesView& v, std::int64_t elem_begin,
                      std::int64_t count, float* dst);

/// Widest column panel of any GEMM (the linear layout's dot-product
/// panels, gemm_rows' and the conv tile's micro-kernel panels).
inline constexpr int kPanelMax = 16;

/// Column panel of the linear-layout GEMM: for rows i in [0, rows) of
/// the staged float A block `a` ([rows, k] row-major) and the `w`
/// columns j + l whose B^T rows are br[l], C[i, j + l] = bias[j + l] (or
/// 0) + sum over ascending p of a[i, p] * br[l][p] with zero a[i, p]
/// skipped, accumulated in double and rounded once, into the C block `c`
/// (row stride n).  A table's panel covers its full vector width and
/// passes narrower panels to the reference.
using NtPanelFn = void (*)(const float* a, const float* const* br, int w,
                           const float* bias, float* c, std::int64_t rows,
                           std::int64_t j, std::int64_t k, std::int64_t n);

/// Reference panel: one body, instantiated with the exact IEEE multiply
/// (the definition every table's panel must match bit-for-bit) and with
/// plam::mitchell_mul (the LP_APPROX=plam kernel).  Both instantiations
/// live in kernels_scalar.cpp.
template <ApproxMode M>
void gemm_nt_ref_panel(const float* a, const float* const* br, int w,
                       const float* bias, float* c, std::int64_t rows,
                       std::int64_t j, std::int64_t k, std::int64_t n);

/// What a table plugs into the shared linear-layout GEMM body.
struct NtKernel {
  int width;             ///< columns per panel, <= kPanelMax
  DecodeElemsFn decode;  ///< LUT decode of coded operand rows
  NtPanelFn panel;
};

/// The body of every gemm_nt_rows (see GemmNtRowsFn).  Only the operand
/// staging depends on the operand forms: a float A row block is read in
/// place and a coded one decoded once into tile_scratch; per `width`
/// panel, float B rows are read in place and coded ones decoded once;
/// the C block is the caller's rows, or tile_scratch handed to
/// encode_scratch_block when `ep` is set.  All arithmetic is kern.panel
/// over staged floats, so the operand forms cannot change a bit.
bool gemm_nt_rows_with(const PackedCodesView& a, const PackedCodesView& b,
                       const float* bias, float* c, const ActEncode* ep,
                       std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t k, std::int64_t n, const NtKernel& kern);

/// Column geometry of one implicit-GEMM conv panel (see ConvPatchView):
/// lane l covers patch column c0 + min(l, lanes - 1) — dead lanes past the
/// tile edge replicate the last live column, so every read they make is
/// one a live lane could make.  `img` is the lane's batch image, `iy`/`ix`
/// the input coordinates of its patch's (ky, kx) = (0, 0) corner (negative
/// or past the edge in the padding), and `dst` its output element in
/// output channel 0 (img * cout * ho * wo + oy * wo + ox).
struct ConvPanelCols {
  std::int64_t img[kPanelMax];
  std::int64_t iy[kPanelMax];
  std::int64_t ix[kPanelMax];
  std::int64_t dst[kPanelMax];
};

/// Fill `pc` for the `width`-lane panel starting at patch column c0, of
/// which the first `lanes` are live.
void conv_panel_cols(const ConvPatchView& x, std::int64_t cout,
                     std::int64_t c0, int lanes, int width,
                     ConvPanelCols& pc);

/// Reference patch gather: panel[p * width + l] = the patch element
/// (p, lane l) for every p in [0, k) — a decoded code or a float, padding
/// positions reading x.pad_value().  The scalar table's gather, and the
/// SIMD tables' fallback for tiles whose input region is too large to
/// stage.
void conv_gather_panel(const ConvPatchView& x, const ConvPanelCols& pc,
                       int width, float* panel);

/// The input a conv tile over patch columns [c0, c1) reads, for each of
/// the group's c_count channels: flattened input rows f = img * h + iy in
/// [f0, f0 + rows), columns [x0, x0 + row_len).  A tile inside one output
/// row reads only its columns' receptive field; a tile spanning output
/// rows reads whole input rows.  Staged as floats in
/// region[(cc * rows + f - f0) * row_len + ix - x0], so a SIMD tile
/// LUT-decodes (or copies) each input element it reads once, not once
/// per patch position that covers it.
struct ConvRegion {
  std::int64_t f0 = 0;
  std::int64_t rows = 0;
  std::int64_t x0 = 0;
  std::int64_t row_len = 0;
  [[nodiscard]] std::int64_t floats(std::int64_t c_count) const {
    return c_count * rows * row_len;
  }
};

[[nodiscard]] ConvRegion conv_region(const ConvPatchView& x, std::int64_t c0,
                                     std::int64_t c1);

/// Largest region a SIMD tile stages (4 MiB of floats); a tile reading
/// more (very wide inputs) takes the reference gather instead.
inline constexpr std::int64_t kConvRegionMaxFloats = std::int64_t{1} << 20;

/// Stage the tile's input region into `region` (rg.floats(x.c_count)
/// floats): one `decode` call per channel and image, or per input row
/// when the region is narrower than the input; a float stream copies the
/// same runs instead.  Reads exactly the region's elements.
void conv_decode_region(const ConvPatchView& x, const ConvRegion& rg,
                        DecodeElemsFn decode, float* region);

/// Region float offset of each lane's patch corner in channel 0:
/// (img * h + iy - rg.f0) * rg.row_len + ix - rg.x0, narrowed to int32
/// (exact whenever the region holds fewer than 2^31 floats).  Padding
/// lanes get offsets outside the region; callers mask them off.
void conv_region_lanes(const ConvPatchView& x, const ConvRegion& rg,
                       const ConvPanelCols& pc, int width, std::int32_t* off);

/// Finish one panel of a conv tile: vals[r * width + l] holds the rounded
/// accumulator of tile row r0 + r, lane l.  Adds the row's bias_v, then
/// stores the first `lanes` lanes of every row through the sink (a float
/// NCHW store at the lane's output offset dst[l], see
/// ConvPanelCols::dst, or act + batched nearest-index encode + code
/// write).  Clobbers vals.  Returns false when the encode sink met a
/// non-finite live element (all other elements are still written).
bool conv_tile_finish(const ConvTileSink& sink, const ConvPatchView& x,
                      float* vals, int width, std::int64_t r0,
                      std::int64_t rows, const std::int64_t* dst, int lanes);

/// Thread-local scratch for the conv tile and the GEMM kernels, one
/// 64-byte-aligned buffer per `slot`:
///  * 0: packed A slivers (see SliverKernel) — one sliver in the conv
///    tile, a block of at most kSliverBlockDoubles in gemm_rows — or the
///    linear-layout GEMM's decoded A rows;
///  * 1: the conv tile's staged column panels (k x width floats each,
///    bounded by the schedule's patch cap), gemm_rows' packed B panel, or
///    the linear-layout GEMM's decoded B^T rows;
///  * 2: the conv tile's decoded sliver rows and its panels' output
///    offsets, or the linear-layout GEMM's staged results ahead of an
///    encode;
///  * 3: the conv tile's staged input region.
/// Not zeroed: every kernel writes what it reads.  Valid until the next
/// call with the same slot on the same thread.
[[nodiscard]] void* tile_scratch_bytes(int slot, std::size_t bytes);

template <typename T = float>
[[nodiscard]] T* tile_scratch(int slot, std::int64_t count) {
  return static_cast<T*>(
      tile_scratch_bytes(slot, static_cast<std::size_t>(count) * sizeof(T)));
}

/// A sliver holds R consecutive rows of the A operand k-major as
/// doubles, ap[p * R + r], with one zero-mask byte per k step: bit r of
/// zm[p] is set when live row r's value at p is +-0.  Rows past `live`
/// (a partial last sliver) are packed as +0.0 with their bit clear: they
/// compute on zeros and are never stored.  Each float is widened once, at
/// packing, so a tier's micro-kernel broadcasts A straight from memory
/// into its FMAs.
///
/// Pack rows [0, live) of the float block `src` (row stride `ld`) into
/// the sliver (ap, zm).  Reads only the live rows.
using SliverPackFn = void (*)(const float* src, std::int64_t ld, int live,
                              std::int64_t k, double* ap, std::uint8_t* zm);

/// A tier's micro-kernel: for rows r in [0, live) of the sliver and the
/// k x width float panel `b` (row stride ldb), c[r * ldc + l] = the
/// double sum of bias[l] (or 0) and ap[p * R + r] * b[p * ldb + l] over
/// ascending p, rows whose zm bit is set at p skipped, rounded once.
/// Steps with zm[p] == 0 take an unconditional path.
using SliverMicroFn = void (*)(const double* ap, const std::uint8_t* zm,
                               const float* b, std::int64_t ldb,
                               const float* bias, float* c, std::int64_t ldc,
                               int live, std::int64_t k);

/// A tier's panel fill from the tile's staged input region:
/// panel[p * width + l] = patch element (p, lane l), padding lanes taking
/// x.pad_value().
using ConvFillFn = void (*)(const ConvPatchView& x, const ConvRegion& rg,
                            const float* region, const ConvPanelCols& pc,
                            int lanes, float* panel);

/// Tallest sliver of any tier.
inline constexpr int kSliverRowsMax = 8;

/// Fully unroll the next loop (over a sliver's rows), so a micro-kernel's
/// accumulator array stays in registers; GCC spills it to the stack
/// otherwise.
#if defined(__clang__)
#define LP_UNROLL_FULL _Pragma("clang loop unroll(full)")
#else
#define LP_UNROLL_FULL _Pragma("GCC unroll 16")
#endif

/// Largest gemm_rows sliver block (256 KiB of doubles): every sliver of
/// a block reuses the block's packed B panel.
inline constexpr std::int64_t kSliverBlockDoubles = std::int64_t{1} << 15;

/// What a SIMD tier plugs into the shared gemm_rows and conv tile bodies.
struct SliverKernel {
  int rows;   ///< R, rows per sliver (<= kSliverRowsMax)
  int width;  ///< columns per panel (<= kPanelMax)
  DecodeElemsFn decode;
  SliverPackFn pack;
  SliverMicroFn micro;
  ConvFillFn fill;
};

/// Body of the SIMD gemm_rows (see GemmRowsFn): A rows are packed into
/// slivers once per call, a block of at most kSliverBlockDoubles at a
/// time; each full `width`-column panel of B (copied k-major when the
/// block holds two or more slivers, else read in place) is swept by
/// every sliver of the block.  Columns past the last full panel take
/// gemm_ref_block.
void gemm_rows_with(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n, const SliverKernel& kern);

/// Body of the SIMD conv tiles (see ConvCodesTileFn): stage the input
/// region once, fill every column panel of the tile once, then for each
/// sliver of R weight rows LUT-decode and pack the rows and sweep the
/// sliver over every panel, finishing each (sliver, panel) block
/// through conv_tile_finish.
bool conv_tile_with(const PackedCodesView& a, const ConvPatchView& x,
                    const ConvTileSink& sink, std::int64_t r0,
                    std::int64_t r1, std::int64_t c0, std::int64_t c1,
                    const SliverKernel& kern);

/// Encode one finished output element for the fused epilogue: apply
/// ep.act, nearest-index through ep.qidx, write the code at element e of
/// ep.codes.  Returns false (and writes nothing) when the activated value
/// is non-finite.  The per-element definition the batched encoders
/// (encode_row_block, the conv tile's encode sink) must match;
/// tests/test_act_codes.cpp pins them to it on every table.
bool encode_elem(const ActEncode& ep, float v, std::int64_t e);

/// Fused epilogue over a finished row block: apply ep.act to src[0..count)
/// (staged in thread-local scratch), batch the nearest-index search
/// through the dispatched SIMD kernel — every table's search is pinned
/// bit-identical, so the choice affects throughput, never codes — and
/// write codes at output elements [elem_begin, elem_begin + count).
/// Returns false when any element was non-finite (the rest still encode,
/// but the caller discards the stream and re-runs the edge in float).
/// Element-for-element identical to encode_elem over src.
bool encode_row_block(const ActEncode& ep, const float* src,
                      std::int64_t elem_begin, std::int64_t count);

/// encode_row_block for callers that own `scratch` (the fused GEMM
/// epilogue): applies ep.act in place, skipping the staging copy.
bool encode_scratch_block(const ActEncode& ep, float* scratch,
                          std::int64_t elem_begin, std::int64_t count);

/// Reference boundary search: index of the nearest table value for an
/// ordered key (bucket jump + short scan / upper_bound).  Any search that
/// counts boundary keys <= key returns the same index; the SIMD tables
/// run a per-lane gather upper_bound and are pinned to this by
/// test_kernels.
[[nodiscard]] std::size_t qindex_lookup(const QuantIndexView& v,
                                        std::uint32_t key);

/// Second pass of a two-pass quantize: apply precomputed nearest indices
/// (kInvalidIndex = non-finite input) to xs[0..n), continuing the
/// element-order squared-error accumulation in `se`.  Shared by the SIMD
/// quantize kernels so their error arithmetic is the scalar code itself.
void quantize_apply(const QuantIndexView& v, float* xs,
                    const std::uint32_t* idx, std::size_t n, double& se);

}  // namespace lp::kernels::detail
