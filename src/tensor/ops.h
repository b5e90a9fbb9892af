// Forward-pass tensor operations.
//
// These are the primitives the DNN substrate (src/nn) composes: GEMM,
// convolution (grouped, so depthwise MobileNet blocks work), pooling,
// activations, softmax, layernorm.  All functions are pure (inputs const,
// fresh output) unless suffixed _inplace.
#pragma once

#include <optional>

#include "core/packed_codes.h"
#include "tensor/tensor.h"

namespace lp {

class NumberFormat;

/// Quantize every element of t in place through the format's batched path
/// (see NumberFormat::quantize_batch).  The RMSE-returning variant is
/// quantize_span in core/number_format.h; this one is for the forward-pass
/// hot loops that discard the error.
void quantize_inplace(Tensor& t, const NumberFormat& fmt);

/// C[M,N] = A[M,K] * B[K,N]  (+bias[N] if non-null).  Both matmul variants
/// accumulate each output element in double, in ascending-k order, so
/// matmul(A, B) is bit-identical to matmul_nt(A, B^T) — the same logical
/// layer rounds the same way regardless of weight layout.  Row-parallel on
/// the default pool; results are bit-identical for any pool size.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            const Tensor* bias = nullptr);

/// C[M,N] = A[M,K] * B[N,K]^T (+bias[N] if non-null).  This is the
/// fully-connected / attention-projection layout.  Same accumulation
/// contract as matmul (see above).  A's leading dims flatten to M, so a
/// rank-3 token tensor [B,T,K] needs no reshape copy; the result is
/// [M,N].  Every matmul_nt* variant below runs the same kernel entry
/// over float or coded operand views, so each is bit-identical to
/// matmul_nt over the decoded operands.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               const Tensor* bias = nullptr);

/// matmul_nt against a packed-code weight operand ([N,K] logical shape):
/// the dispatched kernel LUT-decodes the codes inside the datapath, so
/// the result is bit-identical to matmul_nt(a, decoded_b, bias) while the
/// B-stream reads 4-8x fewer weight bytes.  `approx` selects the multiply
/// semantics: kExact (default) is the bit-identical IEEE path, kPlam is
/// the opt-in log-domain approximate multiply (see kernels.h) bounded by
/// kernels::kPlamMaxRelError per product.
[[nodiscard]] Tensor matmul_nt_codes(
    const Tensor& a, const PackedCodes& b, const Tensor* bias = nullptr,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Output-coding spec for the fused quantize-to-code epilogues: each
/// finished output element gets `act` (kernels::kAct*) applied, is
/// nearest-index encoded through `qidx`, and lands in a fresh stream of
/// `bits`-wide codes decoding through `lut` — the inter-layer activation
/// never materializes as floats.  `qidx` and `lut` must belong to the same
/// format (lut[i] == the float the quantize path stores for index i).
struct ActEncodeSpec {
  kernels::QuantIndexView qidx;
  std::shared_ptr<const DecodeTable> lut;
  int bits = 8;  ///< 8 or 16 (byte-aligned; see kernels::packed_code_write)
  int act = kernels::kActNone;
};

/// Fused variant of matmul_nt_codes: act + encode applied per element
/// before it leaves the kernel, so a float-activation × coded-weight
/// layer writes only codes — the decode→GEMM→bias→act→encode pipeline is
/// one kernel pass.  Returns nullopt when any output element is
/// non-finite (no code can represent NaN) — callers re-run the edge on
/// the float path.
[[nodiscard]] std::optional<PackedCodes> matmul_nt_codes_enc(
    const Tensor& a, const PackedCodes& b, const Tensor* bias,
    const ActEncodeSpec& enc,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// matmul_nt with BOTH operands coded: A [..., K] holds activation codes,
/// B [N,K] holds weight codes, each decoded through its own LUT inside
/// the kernel.  Bit-identical to matmul_nt over the decoded operands.
[[nodiscard]] Tensor matmul_nt_codes_codes(
    const PackedCodes& a, const PackedCodes& b, const Tensor* bias = nullptr,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Fused variant of matmul_nt_codes_codes: act + encode applied per
/// element before it leaves the kernel; the [M,N] result exists only as
/// codes.  Returns nullopt when any output element is non-finite (no code
/// can represent NaN) — callers re-run the edge on the float path.
[[nodiscard]] std::optional<PackedCodes> matmul_nt_codes_codes_enc(
    const PackedCodes& a, const PackedCodes& b, const Tensor* bias,
    const ActEncodeSpec& enc,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Encode an (already activated) float tensor into a coded activation
/// stream through the epilogue's nearest-index search: the decoded stream
/// equals quantizing `t` through the same table, element for element.
/// Returns nullopt when any element is non-finite.  Used where the GEMM
/// output is not encoded in-kernel (attention, or the unfused flow) but
/// the outgoing edge is still coded.
[[nodiscard]] std::optional<PackedCodes> encode_acts(const Tensor& t,
                                                     const ActEncodeSpec& enc);

struct Conv2dSpec {
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;
};

/// 2-D convolution, NCHW input [N,C,H,W], weight [Cout,Cin/groups,kh,kw],
/// optional bias [Cout].  im2col + GEMM implementation — kept apart from
/// the coded convs' implicit-GEMM tile as their independent reference.
[[nodiscard]] Tensor conv2d(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const Conv2dSpec& spec);

/// conv2d with a packed-code weight tensor (same logical layout), as an
/// implicit GEMM: each tile LUT-decodes its weight rows and reads its
/// patches straight from the float input; no patch matrix is built.
/// Bit-identical to conv2d over the decoded weights, for any pool size,
/// except that a NaN output may carry another sign (which NaN an add of
/// two NaNs propagates depends on operand order).
[[nodiscard]] Tensor conv2d_codes(const Tensor& input,
                                  const PackedCodes& weight,
                                  const Tensor* bias, const Conv2dSpec& spec);

/// Fused variant of conv2d_codes: bias + act + encode applied per element
/// in the tile epilogue, so the float-input × coded-weight convolution
/// emits only codes.  Returns nullopt when any output element is
/// non-finite.
[[nodiscard]] std::optional<PackedCodes> conv2d_codes_enc(
    const Tensor& input, const PackedCodes& weight, const Tensor* bias,
    const Conv2dSpec& spec, const ActEncodeSpec& enc);

/// conv2d with coded weights AND a coded NCHW input (8- or 16-bit codes),
/// as an implicit GEMM: each tile gathers its patch codes straight from
/// the input stream (padding with `zero_code`, which must decode to exact
/// +0.0f — see lut_zero_code) and decodes both operands inside the
/// kernel; no patch matrix is built.  Bit-identical to conv2d over the
/// decoded tensors, for any pool size.
[[nodiscard]] Tensor conv2d_codes_codes(const PackedCodes& input,
                                        const PackedCodes& weight,
                                        const Tensor* bias,
                                        const Conv2dSpec& spec,
                                        std::uint32_t zero_code);

/// Fused variant of conv2d_codes_codes: bias + act + encode applied per
/// element in the tile epilogue, so the [N,Cout,H',W'] output exists only
/// as codes.  Returns nullopt when any output element is non-finite.
[[nodiscard]] std::optional<PackedCodes> conv2d_codes_codes_enc(
    const PackedCodes& input, const PackedCodes& weight, const Tensor* bias,
    const Conv2dSpec& spec, std::uint32_t zero_code, const ActEncodeSpec& enc);

/// Global average pool: [N,C,H,W] -> [N,C].
[[nodiscard]] Tensor global_avg_pool(const Tensor& input);

/// Max pool with square kernel/stride: [N,C,H,W] -> [N,C,H',W'].
[[nodiscard]] Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                                std::int64_t stride, std::int64_t padding = 0);

/// Elementwise activations (fresh output).
[[nodiscard]] Tensor relu(const Tensor& x);
[[nodiscard]] Tensor relu6(const Tensor& x);
[[nodiscard]] Tensor gelu(const Tensor& x);

void relu_inplace(Tensor& x);
void relu6_inplace(Tensor& x);
void gelu_inplace(Tensor& x);

/// Elementwise sum (shapes must match).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);

/// Scale all elements.
void scale_inplace(Tensor& a, float s);

/// Softmax over the last dimension.  Rows without a finite maximum (fully
/// masked attention rows of all -inf, or rows poisoned by +inf/NaN) produce
/// the uniform distribution instead of NaN.
[[nodiscard]] Tensor softmax_lastdim(const Tensor& x);

/// LayerNorm over the last dimension with affine params gamma/beta [D].
[[nodiscard]] Tensor layernorm_lastdim(const Tensor& x, const Tensor& gamma,
                                       const Tensor& beta, float eps = 1e-5F);

/// argmax over the last dimension of a 2-D tensor: [N,D] -> indices[N].
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& logits);

/// im2col for conv2d: returns [Cin*kh*kw, N*Hout*Wout] patch matrix for a
/// single group slice.  Exposed for testing.
[[nodiscard]] Tensor im2col(const Tensor& input, std::int64_t c_begin,
                            std::int64_t c_count, std::int64_t kh,
                            std::int64_t kw, const Conv2dSpec& spec);

/// Output spatial size of a convolution dimension.
[[nodiscard]] std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                                        std::int64_t stride, std::int64_t padding);

}  // namespace lp
