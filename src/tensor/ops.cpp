#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/number_format.h"
#include "core/packed_codes.h"
#include "kernels/kernels.h"
#include "kernels/kernels_internal.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lp {

void quantize_inplace(Tensor& t, const NumberFormat& fmt) {
  (void)fmt.quantize_batch(t.data());
}
namespace {

/// Work (in flops / elements) below which a parallel region is not worth
/// the scheduling round-trip.
constexpr std::int64_t kGemmSerialBelow = 1 << 16;
constexpr std::int64_t kRowsSerialBelow = 1 << 14;
/// Rows of one packed A sliver on the widest SIMD table (the avx2 sliver,
/// 4 rows, divides it): GEMM row blocks and conv tile row blocks come in
/// whole slivers, so only a matrix's last block computes dead rows.
constexpr std::int64_t kSliverRows = 8;

/// Shared serial/parallel dispatch for row loops: run body(begin, end, chunk)
/// over [0, count) — inline when the estimated work is under `serial_below`,
/// else row-blocked on the default pool, blocks a multiple of `align`
/// rows.  Only for loops whose per-row results are independent of the
/// split (every caller here), so the pool-size-dependent grain cannot
/// affect results.
void for_row_blocks(
    std::int64_t work, std::int64_t serial_below, std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& body,
    std::int64_t align = 1) {
  if (work < serial_below || count <= 1) {
    body(0, count, 0);
    return;
  }
  ThreadPool& pool = default_pool();
  const std::int64_t grain = balanced_grain(count, pool.thread_count());
  parallel_for(pool, 0, count, (grain + align - 1) / align * align, body);
}

/// Parallel GEMM over M-row blocks of whole slivers: the thread pool
/// splits rows, the dispatched kernel (src/kernels — the scalar reference
/// or a SIMD tier's sliver micro-kernel, selected at runtime) runs inside
/// each block.  Every kernel accumulates each output element in double,
/// contributions added in ascending-k order with zero A entries skipped —
/// the exact arithmetic sequence matmul_nt's dot products produce, so both
/// weight layouts and all dispatch variants round identically (see
/// MatMul.NtBitIdenticalAdversarialMagnitudes and tests/test_kernels.cpp).
/// Rows are independent, so the split is free to depend on the pool size
/// without affecting results.
void gemm_parallel(const float* a, const float* b, const float* bias, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n) {
  const kernels::KernelTable& kt = kernels::dispatch();
  for_row_blocks(
      m * k * n, kGemmSerialBelow, m,
      [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
        kt.gemm_rows(a, b, bias, c, row_begin, row_end, k, n);
      },
      kSliverRows);
}

/// The one linear-layout GEMM driver: every matmul_nt* entry runs the
/// gemm_nt_rows kernel (float or coded operands, optional fused encode
/// epilogue) over row blocks of the default pool.  kExact routes through
/// the dispatched table; kPlam through the log-domain approximate kernel
/// (see kernels_plam.cpp).  A coded B is decoded once per row-block call
/// (O(n*k)), so a block must then carry at least kMinDecodeRows rows to
/// amortize it; a float B has nothing to amortize and takes the balanced
/// grain.  Rows are independent, so no split can change a result.
/// Returns false when any row block reported a non-finite output (all
/// blocks still run; the caller discards the stream).
bool gemm_nt_parallel(const kernels::PackedCodesView& a,
                      const kernels::PackedCodesView& b, const float* bias,
                      float* c, const kernels::ActEncode* ep,
                      kernels::ApproxMode approx, std::int64_t m,
                      std::int64_t k, std::int64_t n) {
  const kernels::GemmNtRowsFn fn = approx == kernels::ApproxMode::kPlam
                                       ? &kernels::plam::gemm_nt_rows
                                       : kernels::dispatch().gemm_nt_rows;
  std::atomic<bool> ok{true};
  auto body = [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
    if (!fn(a, b, bias, c, ep, row_begin, row_end, k, n)) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  constexpr std::int64_t kMinDecodeRows = 16;
  const std::int64_t min_rows = b.lut != nullptr ? kMinDecodeRows : 1;
  if (m * k * n < kGemmSerialBelow || m <= min_rows) {
    body(0, m, 0);
  } else {
    ThreadPool& pool = default_pool();
    const std::int64_t grain =
        std::max(balanced_grain(m, pool.thread_count()), min_rows);
    parallel_for(pool, 0, m, grain, body);
  }
  // Chaos harness: pretend the epilogue saw a non-finite output, so the
  // caller exercises the real escape hatch (discard the coded stream,
  // re-run the edge unfused — bit-identical by the fusion contract).
  if (ep != nullptr && LP_FAULT_POINT("kernel.epilogue.nonfinite")) {
    return false;
  }
  return ok.load(std::memory_order_relaxed);
}

/// Shape of a linear-layout GEMM: A [..., K] (leading dims flatten to M,
/// so rank-3 token activations need no reshape), B [N, K], optional bias
/// [N].
struct NtDims {
  std::int64_t m, k, n;
};

NtDims nt_dims(const std::vector<std::int64_t>& a,
               const std::vector<std::int64_t>& b, const Tensor* bias) {
  LP_CHECK(a.size() >= 2 && b.size() == 2);
  const std::int64_t k = a.back();
  LP_CHECK_MSG(k == b[1], "matmul_nt inner dims " << k << " vs " << b[1]);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == b[0]);
  std::int64_t m = 1;
  for (std::size_t i = 0; i + 1 < a.size(); ++i) m *= a[i];
  return {m, k, b[0]};
}

kernels::PackedCodesView operand(const Tensor& t) {
  return kernels::float_view(t.raw());
}
kernels::PackedCodesView operand(const PackedCodes& t) { return t.view(); }

const float* bias_data(const Tensor* bias) {
  return bias != nullptr ? bias->raw() : nullptr;
}

/// matmul_nt over any operand forms into a float [M, N] result.
template <typename A, typename B>
Tensor nt_float_out(const A& a, const B& b, const Tensor* bias,
                    kernels::ApproxMode approx) {
  const NtDims d = nt_dims(a.shape(), b.shape(), bias);
  Tensor c({d.m, d.n});
  (void)gemm_nt_parallel(operand(a), operand(b), bias_data(bias), c.raw(),
                         nullptr, approx, d.m, d.k, d.n);
  return c;
}

/// matmul_nt over any operand forms with the fused encode epilogue into a
/// coded [M, N] result, or nullopt when an output was non-finite.
template <typename A, typename B>
std::optional<PackedCodes> nt_coded_out(const A& a, const B& b,
                                        const Tensor* bias,
                                        const ActEncodeSpec& enc,
                                        kernels::ApproxMode approx) {
  const NtDims d = nt_dims(a.shape(), b.shape(), bias);
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes(
      PackedCodes::stream_bytes(d.m * d.n, enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  if (!gemm_nt_parallel(operand(a), operand(b), bias_data(bias), nullptr, &ep,
                        approx, d.m, d.k, d.n)) {
    return std::nullopt;
  }
  return PackedCodes::from_codes(std::move(codes), {d.m, d.n}, enc.bits,
                                 enc.lut);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, const Tensor* bias) {
  LP_CHECK(a.rank() == 2 && b.rank() == 2);
  LP_CHECK_MSG(a.dim(1) == b.dim(0), "matmul inner dims " << a.dim(1) << " vs "
                                                          << b.dim(0));
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c({m, n});
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  gemm_parallel(a.raw(), b.raw(), bias != nullptr ? bias->raw() : nullptr,
                c.raw(), m, k, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, const Tensor* bias) {
  return nt_float_out(a, b, bias, kernels::ApproxMode::kExact);
}

Tensor matmul_nt_codes(const Tensor& a, const PackedCodes& b,
                       const Tensor* bias, kernels::ApproxMode approx) {
  return nt_float_out(a, b, bias, approx);
}

std::optional<PackedCodes> matmul_nt_codes_enc(const Tensor& a,
                                               const PackedCodes& b,
                                               const Tensor* bias,
                                               const ActEncodeSpec& enc,
                                               kernels::ApproxMode approx) {
  return nt_coded_out(a, b, bias, enc, approx);
}

Tensor matmul_nt_codes_codes(const PackedCodes& a, const PackedCodes& b,
                             const Tensor* bias, kernels::ApproxMode approx) {
  return nt_float_out(a, b, bias, approx);
}

std::optional<PackedCodes> matmul_nt_codes_codes_enc(const PackedCodes& a,
                                                     const PackedCodes& b,
                                                     const Tensor* bias,
                                                     const ActEncodeSpec& enc,
                                                     kernels::ApproxMode approx) {
  return nt_coded_out(a, b, bias, enc, approx);
}

std::optional<PackedCodes> encode_acts(const Tensor& t,
                                       const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(t.numel(), enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  const float* src = t.raw();
  std::atomic<bool> ok{true};
  auto body = [&](std::int64_t e0, std::int64_t e1, std::int64_t) {
    if (!kernels::detail::encode_row_block(ep, src + e0, e0, e1 - e0)) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  const std::int64_t nelem = t.numel();
  if (nelem < kRowsSerialBelow) {
    body(0, nelem, 0);
  } else {
    parallel_for(default_pool(), 0, nelem, 1 << 15, body);
  }
  if (!ok.load(std::memory_order_relaxed)) return std::nullopt;
  return PackedCodes::from_codes(std::move(codes), t.shape(), enc.bits,
                                 enc.lut);
}

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t padding) {
  LP_CHECK(stride >= 1 && kernel >= 1 && padding >= 0);
  const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
  LP_CHECK_MSG(out >= 1, "conv output dim <= 0 (in=" << in << " k=" << kernel
                                                     << " s=" << stride
                                                     << " p=" << padding << ")");
  return out;
}

Tensor im2col(const Tensor& input, std::int64_t c_begin, std::int64_t c_count,
              std::int64_t kh, std::int64_t kw, const Conv2dSpec& spec) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c_total = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  LP_CHECK(c_begin >= 0 && c_begin + c_count <= c_total);
  const std::int64_t ho = conv_out_dim(h, kh, spec.stride, spec.padding);
  const std::int64_t wo = conv_out_dim(w, kw, spec.stride, spec.padding);
  Tensor cols({c_count * kh * kw, n * ho * wo});
  float* dst = cols.raw();
  const std::int64_t col_width = n * ho * wo;
  const std::int64_t patch_rows = c_count * kh * kw;
  // Each patch row writes a disjoint output row — parallel over rows.
  auto fill_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t cc = row / (kh * kw);
      const std::int64_t ky = (row / kw) % kh;
      const std::int64_t kx = row % kw;
      float* out_row = dst + row * col_width;
      std::int64_t col = 0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* chan = input.raw() + ((b * c_total + c_begin + cc) * h) * w;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.padding + ky;
          const bool y_ok = iy >= 0 && iy < h;
          for (std::int64_t ox = 0; ox < wo; ++ox, ++col) {
            const std::int64_t ix = ox * spec.stride - spec.padding + kx;
            out_row[col] =
                (y_ok && ix >= 0 && ix < w) ? chan[iy * w + ix] : 0.0F;
          }
        }
      }
    }
  };
  for_row_blocks(patch_rows * col_width, kRowsSerialBelow, patch_rows,
                 fill_rows);
  return cols;
}

namespace {

/// Checks shared by every conv entry point: NCHW input [n, cin, h, w]
/// against a [cout, cin/groups, kh, kw] weight and an optional [cout]
/// bias.
void check_conv(const std::vector<std::int64_t>& in,
                const std::vector<std::int64_t>& wd, const Tensor* bias,
                const Conv2dSpec& spec) {
  LP_CHECK(in.size() == 4 && wd.size() == 4);
  LP_CHECK(spec.groups >= 1);
  LP_CHECK_MSG(in[1] % spec.groups == 0 && wd[0] % spec.groups == 0,
               "groups must divide channels");
  LP_CHECK_MSG(wd[1] == in[1] / spec.groups,
               "weight Cin/groups mismatch: " << wd[1] << " vs "
                                              << in[1] / spec.groups);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == wd[0]);
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec) {
  // im2col per group, one GEMM per group, then a scatter into NCHW.  Kept
  // deliberately separate from the coded convs' implicit-GEMM tile: it is
  // the independent reference every coded conv is tested against.
  check_conv(input.shape(), weight.shape(), bias, spec);
  const std::int64_t n = input.dim(0);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t kh = weight.dim(2);
  const std::int64_t kw = weight.dim(3);
  const std::int64_t ho =
      conv_out_dim(input.dim(2), kh, spec.stride, spec.padding);
  const std::int64_t wo =
      conv_out_dim(input.dim(3), kw, spec.stride, spec.padding);
  const std::int64_t cg_in = input.dim(1) / spec.groups;
  const std::int64_t cg_out = cout / spec.groups;
  const std::int64_t k = cg_in * kh * kw;
  const std::int64_t col_width = n * ho * wo;
  Tensor out({n, cout, ho, wo});
  std::vector<float> result(static_cast<std::size_t>(cg_out * col_width));
  for (std::int64_t g = 0; g < spec.groups; ++g) {
    const Tensor cols = im2col(input, g * cg_in, cg_in, kh, kw, spec);
    // result[cg_out, col_width] = W_g * cols
    gemm_parallel(weight.raw() + g * cg_out * k, cols.raw(), nullptr,
                  result.data(), cg_out, k, col_width);
    // Columns are ordered batch-major per im2col; each output channel
    // writes its own planes — parallel over oc.
    auto scatter = [&](std::int64_t oc_begin, std::int64_t oc_end,
                       std::int64_t) {
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        const float bias_v = (bias != nullptr) ? (*bias)[g * cg_out + oc] : 0.0F;
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = result.data() + oc * col_width + b * ho * wo;
          float* dst = out.raw() + (b * cout + g * cg_out + oc) * ho * wo;
          for (std::int64_t i = 0; i < ho * wo; ++i) dst[i] = src[i] + bias_v;
        }
      }
    };
    for_row_blocks(cg_out * col_width, kRowsSerialBelow, cg_out, scatter);
  }
  return out;
}

namespace {

/// Patch operand over a float NCHW input (padding reads +0.0f).
kernels::ConvPatchView patch_view(const Tensor& input) {
  LP_CHECK(input.rank() == 4);
  kernels::ConvPatchView x;
  x.data = reinterpret_cast<const std::uint8_t*>(input.raw());
  x.bits = 32;
  return x;
}

/// Patch operand over a coded NCHW input (padding decodes `zero_code`).
kernels::ConvPatchView patch_view(const PackedCodes& input,
                                  std::uint32_t zero_code) {
  LP_CHECK(input.rank() == 4);
  const int bits = input.code_bits();
  LP_CHECK_MSG(bits == 8 || bits == 16,
               "coded conv input needs byte-aligned codes, got " << bits
                                                                 << "-bit");
  LP_CHECK(static_cast<std::size_t>(zero_code) < input.lut()->size());
  const kernels::PackedCodesView iv = input.view();
  kernels::ConvPatchView x;
  x.data = iv.data;
  x.bits = bits;
  x.lut = iv.lut;
  x.lut_size = iv.lut_size;
  x.zero_code = zero_code;
  return x;
}

/// Shared body of the coded-weight convolutions: an implicit GEMM over
/// (group, row block, column block) tiles of the dispatched
/// conv_codes_tile kernel, which reads patch elements straight from the
/// input stream `x` (codes or floats; this fills in its geometry) and
/// finishes every element into `sink` (float NCHW store or fused act +
/// encode).  The schedule depends only on the shape and the pool width:
/// column blocks of whole 16-column panels when a group has at least
/// 4 x threads panels, otherwise row blocks of whole kSliverRows-row
/// slivers as well.  Column blocks are capped so a tile's patch elements
/// (k x columns: its staged panels, which also bound the input region it
/// stages) stay within kTilePatchFloats of per-thread scratch that
/// persists across calls; rows need no cap, since a tile packs one
/// weight sliver at a time.  Every output element is computed by exactly
/// one tile with the float conv's exact arithmetic sequence, so no tiling
/// (and no pool size) can change a bit.  `make_sink(out_shape)` allocates
/// the output and returns the sink (bias, cout and ch_begin are filled in
/// here).  Returns whether every element was encodable (all tiles still
/// run).
template <typename MakeSink>
bool conv2d_tiled(kernels::ConvPatchView x,
                  const std::vector<std::int64_t>& in_shape,
                  const PackedCodes& weight, const Tensor* bias,
                  const Conv2dSpec& spec, MakeSink&& make_sink) {
  check_conv(in_shape, weight.shape(), bias, spec);
  const std::int64_t n = in_shape[0];
  const std::int64_t cout = weight.dim(0);
  const std::int64_t groups = spec.groups;
  const std::int64_t cg_out = cout / groups;
  x.batch = n;
  x.c_total = in_shape[1];
  x.h = in_shape[2];
  x.w = in_shape[3];
  x.c_count = x.c_total / groups;
  x.kh = weight.dim(2);
  x.kw = weight.dim(3);
  x.stride = spec.stride;
  x.padding = spec.padding;
  x.ho = conv_out_dim(x.h, x.kh, spec.stride, spec.padding);
  x.wo = conv_out_dim(x.w, x.kw, spec.stride, spec.padding);
  const std::int64_t k = x.c_count * x.kh * x.kw;
  const std::int64_t col_width = n * x.ho * x.wo;
  kernels::ConvTileSink sink =
      make_sink(std::vector<std::int64_t>{n, cout, x.ho, x.wo});
  sink.cout = cout;

  // Tile schedule (shape and pool width only).
  constexpr std::int64_t kPanel = 16;
  constexpr std::int64_t kTilePatchFloats = std::int64_t{1} << 16;
  const std::int64_t panels = (col_width + kPanel - 1) / kPanel;
  std::int64_t panels_per_tile = panels;
  std::int64_t rows_per_tile = cg_out;
  const bool parallel = groups * cg_out * k * col_width >= kGemmSerialBelow;
  if (parallel) {
    const std::int64_t target =
        (4 * default_pool().thread_count() + groups - 1) / groups;
    if (panels >= target) {
      panels_per_tile = std::max<std::int64_t>(
          1, std::min(panels / target, kTilePatchFloats / (k * kPanel)));
    } else {
      panels_per_tile = 1;
      const std::int64_t row_splits = (target + panels - 1) / panels;
      const std::int64_t split_rows = (cg_out + row_splits - 1) / row_splits;
      rows_per_tile =
          (split_rows + kSliverRows - 1) / kSliverRows * kSliverRows;
    }
  }
  const std::int64_t cols_per_tile = panels_per_tile * kPanel;
  const std::int64_t row_tiles = (cg_out + rows_per_tile - 1) / rows_per_tile;
  const std::int64_t col_tiles =
      (col_width + cols_per_tile - 1) / cols_per_tile;
  const std::int64_t tiles_per_group = row_tiles * col_tiles;

  const kernels::ConvCodesTileFn tile_fn = kernels::dispatch().conv_codes_tile;
  std::atomic<bool> ok{true};
  auto run_tile = [&](std::int64_t t) {
    const std::int64_t g = t / tiles_per_group;
    const std::int64_t rt = (t % tiles_per_group) / col_tiles;
    const std::int64_t ct = t % col_tiles;
    kernels::ConvPatchView xg = x;
    xg.c_begin = g * x.c_count;
    kernels::ConvTileSink sg = sink;
    sg.ch_begin = g * cg_out;
    if (bias != nullptr) sg.bias = bias->raw() + g * cg_out;
    const std::int64_t r0 = rt * rows_per_tile;
    const std::int64_t c0 = ct * cols_per_tile;
    if (!tile_fn(weight.view(g * cg_out * k), xg, sg, r0,
                 std::min(cg_out, r0 + rows_per_tile), c0,
                 std::min(col_width, c0 + cols_per_tile))) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  const std::int64_t tiles = groups * tiles_per_group;
  if (!parallel || tiles == 1) {
    for (std::int64_t t = 0; t < tiles; ++t) run_tile(t);
  } else {
    default_pool().run_chunks(tiles, run_tile);
  }
  return ok.load(std::memory_order_relaxed);
}

/// Sink factory for the float-output convs: a fresh NCHW tensor.
auto float_sink(Tensor& out) {
  return [&out](std::vector<std::int64_t> shape) {
    out = Tensor(std::move(shape));
    kernels::ConvTileSink sink;
    sink.out = out.raw();
    return sink;
  };
}

/// Tiled conv with the fused act + encode sink: the output exists only
/// as codes, or nullopt when an element was non-finite.
std::optional<PackedCodes> conv2d_tiled_enc(
    const kernels::ConvPatchView& x, const std::vector<std::int64_t>& in_shape,
    const PackedCodes& weight, const Tensor* bias, const Conv2dSpec& spec,
    const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes;
  std::vector<std::int64_t> out_shape;
  kernels::ActEncode ep{enc.qidx, nullptr, enc.bits, enc.act};
  const bool ok = conv2d_tiled(
      x, in_shape, weight, bias, spec, [&](std::vector<std::int64_t> shape) {
        std::int64_t numel = 1;
        for (const std::int64_t d : shape) numel *= d;
        out_shape = std::move(shape);
        codes.resize(PackedCodes::stream_bytes(numel, enc.bits));
        ep.codes = codes.data();
        kernels::ConvTileSink sink;
        sink.ep = &ep;
        return sink;
      });
  if (!ok) return std::nullopt;
  return PackedCodes::from_codes(std::move(codes), std::move(out_shape),
                                 enc.bits, enc.lut);
}

}  // namespace

Tensor conv2d_codes(const Tensor& input, const PackedCodes& weight,
                    const Tensor* bias, const Conv2dSpec& spec) {
  Tensor out;
  (void)conv2d_tiled(patch_view(input), input.shape(), weight, bias, spec,
                     float_sink(out));
  return out;
}

std::optional<PackedCodes> conv2d_codes_enc(const Tensor& input,
                                            const PackedCodes& weight,
                                            const Tensor* bias,
                                            const Conv2dSpec& spec,
                                            const ActEncodeSpec& enc) {
  return conv2d_tiled_enc(patch_view(input), input.shape(), weight, bias,
                          spec, enc);
}

Tensor conv2d_codes_codes(const PackedCodes& input, const PackedCodes& weight,
                          const Tensor* bias, const Conv2dSpec& spec,
                          std::uint32_t zero_code) {
  Tensor out;
  (void)conv2d_tiled(patch_view(input, zero_code), input.shape(), weight,
                     bias, spec, float_sink(out));
  return out;
}

std::optional<PackedCodes> conv2d_codes_codes_enc(const PackedCodes& input,
                                                  const PackedCodes& weight,
                                                  const Tensor* bias,
                                                  const Conv2dSpec& spec,
                                                  std::uint32_t zero_code,
                                                  const ActEncodeSpec& enc) {
  return conv2d_tiled_enc(patch_view(input, zero_code), input.shape(), weight,
                          bias, spec, enc);
}

Tensor global_avg_pool(const Tensor& input) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t hw = input.dim(2) * input.dim(3);
  LP_CHECK(hw > 0);
  Tensor out({n, c});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.raw() + (b * c + ch) * hw;
      double s = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) s += src[i];
      out.at2(b, ch) = static_cast<float>(s / static_cast<double>(hw));
    }
  }
  return out;
}

Tensor max_pool2d(const Tensor& input, std::int64_t kernel, std::int64_t stride,
                  std::int64_t padding) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, padding);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, padding);
  Tensor out({n, c, ho, wo});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.raw() + (b * c + ch) * h * w;
      float* dst = out.raw() + (b * c + ch) * ho * wo;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const std::int64_t iy = oy * stride - padding + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t ix = ox * stride - padding + kx;
              if (ix < 0 || ix >= w) continue;
              best = std::max(best, src[iy * w + ix]);
            }
          }
          dst[oy * wo + ox] = best;
        }
      }
    }
  }
  return out;
}

// The elementwise activations delegate to kernels::act_eval — the single
// definition the fused encode epilogue also evaluates, so fused and
// unfused flows apply bit-identical nonlinearities.

void relu_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActRelu);
}

void relu6_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActRelu6);
}

void gelu_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActGelu);
}

Tensor relu(const Tensor& x) {
  Tensor y = x;
  relu_inplace(y);
  return y;
}

Tensor relu6(const Tensor& x) {
  Tensor y = x;
  relu6_inplace(y);
  return y;
}

Tensor gelu(const Tensor& x) {
  Tensor y = x;
  gelu_inplace(y);
  return y;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  LP_CHECK_MSG(a.shape() == b.shape(),
               "add shape mismatch " << a.shape_str() << " vs " << b.shape_str());
  float* pa = a.raw();
  const float* pb = b.raw();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void scale_inplace(Tensor& a, float s) {
  for (float& v : a.data()) v *= s;
}

Tensor softmax_lastdim(const Tensor& x) {
  LP_CHECK(x.rank() >= 1);
  const std::int64_t d = x.shape().back();
  LP_CHECK(d > 0);
  const std::int64_t rows = x.numel() / d;
  Tensor y = x;
  auto softmax_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                          std::int64_t) {
    const auto uniform = static_cast<float>(1.0 / static_cast<double>(d));
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      float* row = y.raw() + r * d;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t i = 0; i < d; ++i) mx = std::max(mx, row[i]);
      // A fully masked attention row (all -inf) would otherwise yield
      // sum == 0 and inv == inf, spraying NaN downstream; a +inf or
      // all-NaN row would poison exp().  Both degrade to the uniform
      // distribution, the standard masked-softmax convention.
      if (!std::isfinite(mx)) {
        for (std::int64_t i = 0; i < d; ++i) row[i] = uniform;
        continue;
      }
      double sum = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
      }
      if (!(sum > 0.0) || !std::isfinite(sum)) {
        for (std::int64_t i = 0; i < d; ++i) row[i] = uniform;
        continue;
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t i = 0; i < d; ++i) row[i] *= inv;
    }
  };
  for_row_blocks(rows * d, kRowsSerialBelow, rows, softmax_rows);
  return y;
}

Tensor layernorm_lastdim(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps) {
  LP_CHECK(x.rank() >= 1);
  const std::int64_t d = x.shape().back();
  LP_CHECK(gamma.rank() == 1 && gamma.dim(0) == d);
  LP_CHECK(beta.rank() == 1 && beta.dim(0) == d);
  const std::int64_t rows = x.numel() / d;
  Tensor y = x;
  auto norm_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t) {
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      float* row = y.raw() + r * d;
      double mu = 0.0;
      for (std::int64_t i = 0; i < d; ++i) mu += row[i];
      mu /= static_cast<double>(d);
      double var = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        const double dv = row[i] - mu;
        var += dv * dv;
      }
      var /= static_cast<double>(d);
      const double inv = 1.0 / std::sqrt(var + eps);
      for (std::int64_t i = 0; i < d; ++i) {
        row[i] = static_cast<float>((row[i] - mu) * inv) * gamma[i] + beta[i];
      }
    }
  };
  for_row_blocks(rows * d, kRowsSerialBelow, rows, norm_rows);
  return y;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  LP_CHECK(logits.rank() == 2);
  const std::int64_t n = logits.dim(0);
  const std::int64_t d = logits.dim(1);
  LP_CHECK(d > 0);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = logits.raw() + r * d;
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < d; ++i) {
      if (row[i] > row[best]) best = i;
    }
    idx[static_cast<std::size_t>(r)] = best;
  }
  return idx;
}

}  // namespace lp
