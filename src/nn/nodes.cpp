#include "nn/nodes.h"

#include <algorithm>
#include <cmath>

#include "core/packed_codes.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace lp::nn {
namespace {

/// Capture hook shared by weighted nodes.
void capture_pooled(const RunCtx& ctx, const Tensor& out) {
  if (ctx.pooled_capture != nullptr) ctx.pooled_capture->push_back(kurtosis_pool(out));
  if (ctx.act_scale_capture != nullptr) {
    ctx.act_scale_capture->push_back(static_cast<float>(mean_abs(out.data())));
  }
  if (ctx.act_max_capture != nullptr) {
    float mx = 0.0F;
    for (float v : out.data()) mx = std::max(mx, std::fabs(v));
    ctx.act_max_capture->push_back(mx);
  }
}

/// nn::Act as the kernel layer's epilogue selector.
int act_kernel(Act act) {
  switch (act) {
    case Act::kNone: return kernels::kActNone;
    case Act::kRelu: return kernels::kActRelu;
    case Act::kRelu6: return kernels::kActRelu6;
    case Act::kGelu: return kernels::kActGelu;
  }
  return kernels::kActNone;
}

/// The coded-output spec for a slot, or null when this run's hooks force
/// the float path (value captures read float activations).
const ActCoding* out_coding(const RunCtx& ctx, int slot) {
  return ctx.capturing() ? nullptr : ctx.act_coding_for(slot);
}

void count_coded(const RunCtx& ctx, const PackedCodes& out) {
  if (ctx.act_traffic != nullptr) {
    ctx.act_traffic->coded_bytes +=
        static_cast<std::int64_t>(out.payload_bytes());
  }
}

void count_float(const RunCtx& ctx, const Tensor& out) {
  if (ctx.act_traffic != nullptr) {
    ctx.act_traffic->float_bytes +=
        out.numel() * static_cast<std::int64_t>(sizeof(float));
  }
}

/// Post-GEMM tail for a weighted node holding a float result with the
/// nonlinearity already applied: on a coded edge, encode it (the decoded
/// stream equals the quantized floats); on encode failure (non-finite
/// elements) or a float edge, quantize in place — the two tails produce
/// value-identical activations.
NodeValue finish_act(const RunCtx& ctx, int slot, const ActCoding* coding,
                     Tensor out) {
  if (coding != nullptr) {
    auto enc = encode_acts(out, {coding->qidx->view(), coding->lut,
                                 coding->bits, kernels::kActNone});
    if (enc.has_value()) {
      count_coded(ctx, *enc);
      return NodeValue(std::move(*enc));
    }
  }
  quantize_activations(out, ctx.act_format(slot));
  capture_pooled(ctx, out);
  count_float(ctx, out);
  return NodeValue(std::move(out));
}

/// An add operand as the kernel layer's view: its codes when it has
/// them, else its floats.
kernels::PackedCodesView operand_view(const NodeValue& x) {
  return x.codes() != nullptr ? x.codes()->view()
                              : kernels::float_view(x.dense().raw());
}

/// Elements [e0, e0 + len) of an operand as floats: read in place, or
/// LUT-decoded into `buf`.
const float* operand_floats(const kernels::PackedCodesView& v,
                            std::int64_t e0, std::int64_t len, float* buf) {
  if (v.lut == nullptr) return v.floats() + e0;
  for (std::int64_t i = 0; i < len; ++i) {
    buf[i] = kernels::packed_decode_at(v, e0 + i);
  }
  return buf;
}

}  // namespace

const Tensor& NodeValue::dense() const {
  if (!has_dense_) {
    LP_CHECK_MSG(codes_.has_value(), "dense() on an empty NodeValue");
    Tensor t(codes_->shape());
    codes_->decode(t.data());
    dense_ = std::move(t);
    has_dense_ = true;
  }
  return dense_;
}

Tensor NodeValue::into_dense() && {
  (void)dense();
  has_dense_ = false;
  return std::move(dense_);
}

void apply_act(Tensor& t, Act act) {
  switch (act) {
    case Act::kNone: return;
    case Act::kRelu: relu_inplace(t); return;
    case Act::kRelu6: relu6_inplace(t); return;
    case Act::kGelu: gelu_inplace(t); return;
  }
}

void quantize_activations(Tensor& t, const NumberFormat* fmt) {
  if (fmt == nullptr) return;
  quantize_inplace(t, *fmt);
}

std::vector<float> kurtosis_pool(const Tensor& t) {
  LP_CHECK(t.rank() >= 1 && t.numel() > 0);
  const std::int64_t b = t.dim(0);
  const std::int64_t per = t.numel() / b;
  std::vector<float> out(static_cast<std::size_t>(b));
  for (std::int64_t i = 0; i < b; ++i) {
    const std::span<const float> row(t.raw() + i * per,
                                     static_cast<std::size_t>(per));
    out[static_cast<std::size_t>(i)] = static_cast<float>(kurtosis3(row));
  }
  return out;
}

NodeValue InputNode::run(std::span<const NodeValue* const>,
                         const RunCtx&) const {
  LP_ASSERT_MSG(false, "InputNode::run must not be called; the executor "
                       "substitutes the batch directly");
}

Conv2dNode::Conv2dNode(int input, std::string name, Tensor weight, Tensor bias,
                       Conv2dSpec spec, Act act, int block_id)
    : Node({input}, std::move(name)), spec_(spec), act_(act) {
  LP_CHECK(weight.rank() == 4);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue Conv2dNode::run(std::span<const NodeValue* const> x,
                          const RunCtx& ctx) const {
  const int s = first_slot();
  const Tensor& w = ctx.weight(s, slot_.weight);
  const NodeValue& in = *x[0];
  if (ctx.workloads != nullptr) {
    const auto& ish = in.shape();
    const std::int64_t ho =
        conv_out_dim(ish[2], w.dim(2), spec_.stride, spec_.padding);
    const std::int64_t wo =
        conv_out_dim(ish[3], w.dim(3), spec_.stride, spec_.padding);
    ctx.workloads->push_back({name(), w.dim(0),
                              w.dim(1) * w.dim(2) * w.dim(3),
                              ish[0] * ho * wo, s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const PackedCodes* codes = ctx.weight_codes(s);
  const ActCoding* coding = out_coding(ctx, s);
  const PackedCodes* icodes = in.codes();
  // Coded patches need a code that decodes to the float im2col's exact
  // padding zero; a LUT without one drops the edge to the dense input.
  const std::int64_t zc =
      icodes != nullptr ? lut_zero_code(*icodes->lut()) : -1;

  // Fully coded: coded weights x coded patches with the fused
  // bias+act+encode tile epilogue — the output never materializes as floats.
  if (codes != nullptr && icodes != nullptr && zc >= 0 && coding != nullptr) {
    auto out = conv2d_codes_codes_enc(
        *icodes, *codes, bias, spec_, static_cast<std::uint32_t>(zc),
        {coding->qidx->view(), coding->lut, coding->bits, act_kernel(act_)});
    if (out.has_value()) {
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  // Float input (or a LUT without a padding zero), coded weights, coded
  // output: fuse bias+act+encode into the conv tile so the output
  // skips the float round-trip even though the input arrived dense.
  if (codes != nullptr && !(icodes != nullptr && zc >= 0) &&
      coding != nullptr && ctx.fuse) {
    auto out = conv2d_codes_enc(
        in.dense(), *codes, bias, spec_,
        {coding->qidx->view(), coding->lut, coding->bits, act_kernel(act_)});
    if (out.has_value()) {
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  Tensor out;
  if (codes != nullptr && icodes != nullptr && zc >= 0) {
    out = conv2d_codes_codes(*icodes, *codes, bias, spec_,
                             static_cast<std::uint32_t>(zc));
  } else if (codes != nullptr) {
    out = conv2d_codes(in.dense(), *codes, bias, spec_);
  } else {
    out = conv2d(in.dense(), w, bias, spec_);
  }
  apply_act(out, act_);
  return finish_act(ctx, s, coding, std::move(out));
}

LinearNode::LinearNode(int input, std::string name, Tensor weight, Tensor bias,
                       Act act, int block_id)
    : Node({input}, std::move(name)), act_(act) {
  LP_CHECK(weight.rank() == 2);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue LinearNode::run(std::span<const NodeValue* const> x,
                          const RunCtx& ctx) const {
  const int s = first_slot();
  const Tensor& w = ctx.weight(s, slot_.weight);
  const NodeValue& in = *x[0];
  const auto& ish = in.shape();
  LP_CHECK(ish.size() == 2 || ish.size() == 3);
  const std::int64_t rows = ish.size() == 3 ? ish[0] * ish[1] : ish[0];
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name(), w.dim(0), w.dim(1), rows, s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const PackedCodes* codes = ctx.weight_codes(s);
  const ActCoding* coding = out_coding(ctx, s);
  const PackedCodes* icodes = in.codes();

  // Fully coded: both operands decode inside the kernel and the output is
  // encoded in the epilogue — codes in, codes out.
  if (codes != nullptr && icodes != nullptr && coding != nullptr) {
    auto out = matmul_nt_codes_codes_enc(
        *icodes, *codes, bias,
        {coding->qidx->view(), coding->lut, coding->bits, act_kernel(act_)},
        ctx.approx);
    if (out.has_value()) {
      if (ish.size() == 3) out->reshape({ish[0], ish[1], w.dim(0)});
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  // Float input, coded weights, coded output: fuse GEMM→bias→act→encode
  // in one kernel pass — the layer's activations never exist as a float
  // tensor even though its input arrived dense.
  if (codes != nullptr && icodes == nullptr && coding != nullptr && ctx.fuse) {
    auto out = matmul_nt_codes_enc(
        in.dense(), *codes, bias,
        {coding->qidx->view(), coding->lut, coding->bits, act_kernel(act_)},
        ctx.approx);
    if (out.has_value()) {
      if (ish.size() == 3) out->reshape({ish[0], ish[1], w.dim(0)});
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  // The matmul_nt entries flatten a rank-3 input's leading dims.
  Tensor out;
  if (codes != nullptr && icodes != nullptr) {
    out = matmul_nt_codes_codes(*icodes, *codes, bias, ctx.approx);
  } else if (codes != nullptr) {
    out = matmul_nt_codes(in.dense(), *codes, bias, ctx.approx);
  } else {
    out = matmul_nt(in.dense(), w, bias);
  }
  if (ish.size() == 3) out.reshape({ish[0], ish[1], w.dim(0)});
  apply_act(out, act_);
  return finish_act(ctx, s, coding, std::move(out));
}

AttentionNode::AttentionNode(int input, std::string name, int dim, int heads,
                             std::array<Tensor, 4> weights,
                             std::array<Tensor, 4> biases, int block_id,
                             int window, int grid_h, int grid_w)
    : Node({input}, std::move(name)), dim_(dim), heads_(heads), window_(window),
      grid_h_(grid_h), grid_w_(grid_w) {
  LP_CHECK(dim > 0 && heads > 0 && dim % heads == 0);
  static constexpr const char* kProj[4] = {".wq", ".wk", ".wv", ".wo"};
  for (int i = 0; i < 4; ++i) {
    LP_CHECK(weights[static_cast<std::size_t>(i)].rank() == 2);
    auto& sl = slots_[static_cast<std::size_t>(i)];
    sl.name = this->name() + kProj[i];
    sl.weight = std::move(weights[static_cast<std::size_t>(i)]);
    sl.bias = std::move(biases[static_cast<std::size_t>(i)]);
    sl.block_id = block_id;
  }
  if (window_ > 0) {
    LP_CHECK(grid_h_ % window_ == 0 && grid_w_ % window_ == 0);
  }
}

Tensor AttentionNode::attend(const Tensor& tokens, const RunCtx& ctx) const {
  // tokens: [B, T, D] (possibly window-partitioned batches).
  const std::int64_t b = tokens.dim(0);
  const std::int64_t t = tokens.dim(1);
  const std::int64_t d = tokens.dim(2);
  const std::int64_t dh = d / heads_;
  const int s0 = first_slot();

  std::array<Tensor, 3> qkv;
  for (int i = 0; i < 3; ++i) {
    const auto& sl = slots_[static_cast<std::size_t>(i)];
    const Tensor& w = ctx.weight(s0 + i, sl.weight);
    if (ctx.workloads != nullptr) {
      ctx.workloads->push_back({name() + '.' + "qkv"[i], w.dim(0), w.dim(1),
                                b * t, s0 + i});
    }
    const Tensor* bias = sl.bias.empty() ? nullptr : &sl.bias;
    const PackedCodes* codes = ctx.weight_codes(s0 + i);
    qkv[static_cast<std::size_t>(i)] =
        codes != nullptr ? matmul_nt_codes(tokens, *codes, bias, ctx.approx)
                         : matmul_nt(tokens, w, bias);
    quantize_activations(qkv[static_cast<std::size_t>(i)],
                         ctx.act_format(s0 + i));
  }
  if (ctx.workloads != nullptr) {
    // Activation-activation matmuls: scores and attention-times-values.
    ctx.workloads->push_back({name() + ".qk", t, dh, t * b * heads_, -1});
    ctx.workloads->push_back({name() + ".av", t, t, dh * b * heads_, -1});
  }

  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));
  Tensor concat({b * t, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (int h = 0; h < heads_; ++h) {
      const std::int64_t c0 = h * dh;
      // This head's dh columns of the sample's t token rows, copied once.
      auto head_slice = [&](const Tensor& m) {
        Tensor out({t, dh});
        const float* src = m.raw() + bi * t * d + c0;
        for (std::int64_t ti = 0; ti < t; ++ti) {
          std::copy_n(src + ti * d, dh, out.raw() + ti * dh);
        }
        return out;
      };
      const Tensor qh = head_slice(qkv[0]);
      const Tensor kh = head_slice(qkv[1]);
      const Tensor vh = head_slice(qkv[2]);
      Tensor scores = matmul_nt(qh, kh);
      scale_inplace(scores, inv_sqrt_dh);
      scores = softmax_lastdim(scores);
      const Tensor ctx_out = matmul(scores, vh);  // [t, dh]
      for (std::int64_t ti = 0; ti < t; ++ti) {
        std::copy_n(ctx_out.raw() + ti * dh, dh,
                    concat.raw() + (bi * t + ti) * d + c0);
      }
    }
  }
  // The v-projection's activation format also covers the softmax(QK)V
  // output (the PPU requantizes partial results on-chip).
  quantize_activations(concat, ctx.act_format(s0 + 2));

  const auto& so = slots_[3];
  const Tensor& wo = ctx.weight(s0 + 3, so.weight);
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name() + ".o", wo.dim(0), wo.dim(1), b * t, s0 + 3});
  }
  const Tensor* obias = so.bias.empty() ? nullptr : &so.bias;
  const PackedCodes* ocodes = ctx.weight_codes(s0 + 3);
  Tensor out = ocodes != nullptr
                   ? matmul_nt_codes(concat, *ocodes, obias, ctx.approx)
                   : matmul_nt(concat, wo, obias);
  quantize_activations(out, ctx.act_format(s0 + 3));
  out.reshape({b, t, d});
  return out;
}

NodeValue AttentionNode::run(std::span<const NodeValue* const> x,
                             const RunCtx& ctx) const {
  // Attention consumes floats (its head slicing and softmax stay dense);
  // a coded input decodes to the float path's exact tensor.
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  LP_CHECK_MSG(in.dim(2) == dim_, "attention dim mismatch");
  Tensor out;
  if (window_ <= 0) {
    out = attend(in, ctx);
  } else {
    // Partition the (grid_h x grid_w) token grid into window x window tiles,
    // treat each tile as an independent attention batch, then un-partition.
    const std::int64_t b = in.dim(0);
    const std::int64_t t = in.dim(1);
    LP_CHECK(t == static_cast<std::int64_t>(grid_h_) * grid_w_);
    const std::int64_t nh = grid_h_ / window_;
    const std::int64_t nw = grid_w_ / window_;
    const std::int64_t wt = static_cast<std::int64_t>(window_) * window_;
    Tensor part({b * nh * nw, wt, dim_});
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t wy = 0; wy < nh; ++wy) {
        for (std::int64_t wx = 0; wx < nw; ++wx) {
          const std::int64_t wb = (bi * nh + wy) * nw + wx;
          for (std::int64_t iy = 0; iy < window_; ++iy) {
            for (std::int64_t ix = 0; ix < window_; ++ix) {
              const std::int64_t tok = (wy * window_ + iy) * grid_w_ +
                                       wx * window_ + ix;
              std::copy_n(in.raw() + (bi * t + tok) * dim_, dim_,
                          part.raw() + (wb * wt + iy * window_ + ix) * dim_);
            }
          }
        }
      }
    }
    const Tensor attended = attend(part, ctx);
    out = Tensor({b, t, static_cast<std::int64_t>(dim_)});
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t wy = 0; wy < nh; ++wy) {
        for (std::int64_t wx = 0; wx < nw; ++wx) {
          const std::int64_t wb = (bi * nh + wy) * nw + wx;
          for (std::int64_t iy = 0; iy < window_; ++iy) {
            for (std::int64_t ix = 0; ix < window_; ++ix) {
              const std::int64_t tok = (wy * window_ + iy) * grid_w_ +
                                       wx * window_ + ix;
              std::copy_n(attended.raw() + (wb * wt + iy * window_ + ix) * dim_,
                          dim_, out.raw() + (bi * t + tok) * dim_);
            }
          }
        }
      }
    }
  }
  capture_pooled(ctx, out);
  count_float(ctx, out);
  return NodeValue(std::move(out));
}

NodeValue MaxPoolNode::run(std::span<const NodeValue* const> x,
                           const RunCtx&) const {
  return max_pool2d(x[0]->dense(), kernel_, stride_, padding_);
}

NodeValue GlobalAvgPoolNode::run(std::span<const NodeValue* const> x,
                                 const RunCtx&) const {
  return global_avg_pool(x[0]->dense());
}

NodeValue AddNode::run(std::span<const NodeValue* const> x,
                       const RunCtx&) const {
  // One pooled pass: each operand is read in place as floats or
  // LUT-decoded from its codes a block at a time, and act(a + b) is
  // written once — the float add and activation of add() + apply_act(),
  // without the decoded copies.
  LP_CHECK_MSG(x[0]->shape() == x[1]->shape(), "add shape mismatch");
  Tensor out(x[0]->shape());
  const kernels::PackedCodesView in[2] = {operand_view(*x[0]),
                                          operand_view(*x[1])};
  const int act = act_kernel(act_);
  float* const dst = out.raw();
  const std::int64_t n = out.numel();
  ThreadPool& pool = default_pool();
  constexpr std::int64_t kBlock = 1024;
  parallel_for(
      pool, 0, n,
      std::max(balanced_grain(n, pool.thread_count()), 4 * kBlock),
      [&](std::int64_t e0, std::int64_t e1, std::int64_t) {
        float buf[2][kBlock];
        for (std::int64_t s = e0; s < e1; s += kBlock) {
          const std::int64_t len = std::min(kBlock, e1 - s);
          const float* a = operand_floats(in[0], s, len, buf[0]);
          const float* b = operand_floats(in[1], s, len, buf[1]);
          for (std::int64_t i = 0; i < len; ++i) {
            dst[s + i] = kernels::act_eval(a[i] + b[i], act);
          }
        }
      });
  return out;
}

NodeValue LayerNormNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  return layernorm_lastdim(x[0]->dense(), gamma_, beta_);
}

NodeValue ToTokensNode::run(std::span<const NodeValue* const> x,
                            const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 4);
  const std::int64_t b = in.dim(0);
  const std::int64_t c = in.dim(1);
  const std::int64_t hw = in.dim(2) * in.dim(3);
  Tensor out({b, hw, c});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* src = in.raw() + (bi * c + ci) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        out.raw()[(bi * hw + p) * c + ci] = src[p];
      }
    }
  }
  return out;
}

NodeValue ClsPosNode::run(std::span<const NodeValue* const> x,
                          const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(cls_.rank() == 1 && cls_.dim(0) == d);
  LP_CHECK(pos_.rank() == 2 && pos_.dim(0) == t + 1 && pos_.dim(1) == d);
  Tensor out({b, t + 1, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * (t + 1) * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] = cls_[j] + pos_.at2(0, j);
    for (std::int64_t ti = 0; ti < t; ++ti) {
      const float* src = in.raw() + (bi * t + ti) * d;
      float* drow = dst + (ti + 1) * d;
      const float* prow = pos_.raw() + (ti + 1) * d;
      for (std::int64_t j = 0; j < d; ++j) drow[j] = src[j] + prow[j];
    }
  }
  return out;
}

NodeValue PosEmbedNode::run(std::span<const NodeValue* const> x,
                            const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(pos_.rank() == 2 && pos_.dim(0) == t && pos_.dim(1) == d);
  Tensor out = in;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * t * d;
    for (std::int64_t i = 0; i < t * d; ++i) dst[i] += pos_.raw()[i];
  }
  return out;
}

NodeValue ClsSelectNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  Tensor out({b, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    std::copy_n(in.raw() + bi * t * d, d, out.raw() + bi * d);
  }
  return out;
}

NodeValue TokenMeanNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(t > 0);
  Tensor out({b, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * d;
    for (std::int64_t ti = 0; ti < t; ++ti) {
      const float* src = in.raw() + (bi * t + ti) * d;
      for (std::int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    const float inv = 1.0F / static_cast<float>(t);
    for (std::int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  return out;
}

PatchMergeNode::PatchMergeNode(int input, std::string name, int grid_h,
                               int grid_w, Tensor weight, Tensor bias,
                               int block_id)
    : Node({input}, std::move(name)), grid_h_(grid_h), grid_w_(grid_w) {
  LP_CHECK(grid_h % 2 == 0 && grid_w % 2 == 0);
  LP_CHECK(weight.rank() == 2);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue PatchMergeNode::run(std::span<const NodeValue* const> x,
                              const RunCtx& ctx) const {
  // The 2x2 gather works on floats; a coded input decodes first.
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(t == static_cast<std::int64_t>(grid_h_) * grid_w_);
  const std::int64_t oh = grid_h_ / 2;
  const std::int64_t ow = grid_w_ / 2;
  // Gather 2x2 neighbourhoods into [b*oh*ow, 4d].
  Tensor gathered({b * oh * ow, 4 * d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* dst = gathered.raw() + ((bi * oh + oy) * ow + ox) * 4 * d;
        int quad = 0;
        for (std::int64_t dy = 0; dy < 2; ++dy) {
          for (std::int64_t dx = 0; dx < 2; ++dx, ++quad) {
            const std::int64_t tok = (oy * 2 + dy) * grid_w_ + ox * 2 + dx;
            std::copy_n(in.raw() + (bi * t + tok) * d, d, dst + quad * d);
          }
        }
      }
    }
  }
  const int s = first_slot();
  const Tensor& w = ctx.weight(s, slot_.weight);
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name(), w.dim(0), w.dim(1), gathered.dim(0), s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const PackedCodes* codes = ctx.weight_codes(s);
  const ActCoding* coding = out_coding(ctx, s);
  // Coded weights + coded output: fuse GEMM→bias→encode (patch merge has
  // no nonlinearity) so the merged tokens leave only as codes.
  if (codes != nullptr && coding != nullptr && ctx.fuse) {
    auto enc = matmul_nt_codes_enc(gathered, *codes, bias,
                                   {coding->qidx->view(), coding->lut,
                                    coding->bits, kernels::kActNone},
                                   ctx.approx);
    if (enc.has_value()) {
      enc->reshape({b, oh * ow, w.dim(0)});
      count_coded(ctx, *enc);
      return NodeValue(std::move(*enc));
    }
  }
  Tensor out = codes != nullptr
                   ? matmul_nt_codes(gathered, *codes, bias, ctx.approx)
                   : matmul_nt(gathered, w, bias);
  if (coding != nullptr) {
    auto enc = encode_acts(out, {coding->qidx->view(), coding->lut,
                                 coding->bits, kernels::kActNone});
    if (enc.has_value()) {
      enc->reshape({b, oh * ow, w.dim(0)});
      count_coded(ctx, *enc);
      return NodeValue(std::move(*enc));
    }
  }
  quantize_activations(out, ctx.act_format(s));
  out.reshape({b, oh * ow, w.dim(0)});
  capture_pooled(ctx, out);
  count_float(ctx, out);
  return NodeValue(std::move(out));
}

}  // namespace lp::nn
