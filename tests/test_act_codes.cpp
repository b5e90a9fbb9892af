// End-to-end coded activation datapath tests.
//
// The contract under test: with coded activations on (the session
// default), inter-layer activations flow between weighted nodes as packed
// LP codes, and the logits are bit-identical to the float activation path
// — across models (CNN and ViT families), LP_THREADS (pinned in-process)
// and LP_KERNEL (the CI kernel A/B step re-runs this binary under
// LP_KERNEL=scalar and =avx2, and the ASan/TSan legs run it too).  On top
// of that: per-edge float fallback, capture hooks forcing the float path,
// the fused codes-codes GEMM/conv epilogues on odd shapes, and the
// encode-failure (non-finite) escape hatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "kernels/kernels_internal.h"
#include "lpq/lpq.h"
#include "nn/nodes.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

nn::ZooOptions small_opts() {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 17;
  return o;
}

Tensor random_batch(int n, int c, int s, std::uint64_t seed) {
  Tensor x({n, c, s, s});
  Rng rng(seed);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  return x;
}

std::vector<LPConfig> varied_weight_cfgs(const nn::Model& m) {
  std::vector<LPConfig> cfgs;
  const auto centers = lpq::sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    const int n = 4 + static_cast<int>(s % 3) * 2;  // 4, 6, 8
    cfgs.push_back(LPConfig{n, n >= 6 ? 2 : 1, n / 2, centers[s]});
  }
  return cfgs;
}

std::vector<LPConfig> varied_act_cfgs(const std::vector<LPConfig>& w) {
  std::vector<LPConfig> cfgs;
  for (const LPConfig& c : w) cfgs.push_back(activation_config(c, 0.5));
  return cfgs;
}

std::vector<std::uint32_t> float_bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  bits.reserve(static_cast<std::size_t>(t.numel()));
  for (const float v : t.data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return float_bits(a) == float_bits(b);
}

// --- session level: coded vs float forward ---------------------------------

TEST(CodedActivations, ForwardBitIdenticalAcrossModelsAndThreads) {
  PoolGuard guard;
  for (const char* name : {"tiny_cnn", "tiny_vit"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    const Tensor x = random_batch(4, 3, 16, 31);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    std::vector<std::vector<std::uint32_t>> runs;
    for (const int threads : {1, 8}) {
      set_default_pool_threads(threads);

      runtime::SessionOptions float_opts;
      float_opts.coded_activations = false;
      runtime::InferenceSession float_session(m, float_opts);
      float_session.set_formats(w, a);
      nn::ActTraffic float_traffic;
      const auto ref = float_session.run(x, false, &float_traffic);
      EXPECT_EQ(float_traffic.coded_bytes, 0) << name;
      EXPECT_GT(float_traffic.float_bytes, 0) << name;

      runtime::InferenceSession coded_session(m);  // coded on by default
      coded_session.set_formats(w, a);
      nn::ActTraffic coded_traffic;
      const auto got = coded_session.run(x, false, &coded_traffic);

      ASSERT_TRUE(bits_equal(got.logits, ref.logits))
          << name << " threads=" << threads;
      // The coded path must actually engage — a silent all-float fallback
      // would make this test vacuous.
      EXPECT_GT(coded_traffic.coded_bytes, 0) << name;
      // Every coded edge replaced a float32 edge with <=16-bit codes, so
      // the float bytes eliminated must be at least 2x the coded bytes
      // added (4x at the 8-bit activation widths used here).
      EXPECT_GE(float_traffic.float_bytes - coded_traffic.float_bytes,
                2 * coded_traffic.coded_bytes)
          << name;
      runs.push_back(float_bits(got.logits));
    }
    EXPECT_EQ(runs[0], runs[1]) << name;  // threads=1 vs threads=8
  }
}

TEST(CodedActivations, ForwardBitIdenticalOnLargerZooModels) {
  // One single-thread pass over deeper zoo members: residual CNN with
  // strided/grouped convs (mobilenet uses ReLU6 + depthwise) and the
  // default-size tiny ViT with a bigger batch.
  for (const char* name : {"resnet18", "mobilenetv2"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    const Tensor x = random_batch(2, 3, 16, 57);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    runtime::SessionOptions float_opts;
    float_opts.coded_activations = false;
    runtime::InferenceSession float_session(m, float_opts);
    float_session.set_formats(w, a);
    const auto ref = float_session.run(x);

    runtime::InferenceSession coded_session(m);
    coded_session.set_formats(w, a);
    nn::ActTraffic traffic;
    const auto got = coded_session.run(x, false, &traffic);
    ASSERT_TRUE(bits_equal(got.logits, ref.logits)) << name;
    EXPECT_GT(traffic.coded_bytes, 0) << name;
  }
}

TEST(CodedActivations, TrafficCountsEveryEdge) {
  // ActTraffic counts every node's output once: on the float path the
  // total is the bytes of all edges; on the coded path the residual adds
  // and pools still produce floats, which must show up as float bytes.
  const nn::Model m = nn::build_model("resnet18", small_opts());
  const Tensor x = random_batch(2, 3, 16, 71);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  std::int64_t all_edges = 0;
  std::int64_t slotless_edges = 0;
  for (std::size_t i = 1; i < m.node_count(); ++i) {
    const std::int64_t bytes =
        m.forward_node_output(x, i).numel() *
        static_cast<std::int64_t>(sizeof(float));
    all_edges += bytes;
    if (m.node(i).slots_const().empty()) slotless_edges += bytes;
  }
  ASSERT_GT(slotless_edges, 0);

  runtime::SessionOptions float_opts;
  float_opts.coded_activations = false;
  runtime::InferenceSession float_session(m, float_opts);
  float_session.set_formats(w, a);
  nn::ActTraffic float_traffic;
  (void)float_session.run(x, false, &float_traffic);
  EXPECT_EQ(float_traffic.float_bytes, all_edges);
  EXPECT_EQ(float_traffic.coded_bytes, 0);

  runtime::InferenceSession coded_session(m);
  coded_session.set_formats(w, a);
  nn::ActTraffic coded_traffic;
  (void)coded_session.run(x, false, &coded_traffic);
  EXPECT_GT(coded_traffic.coded_bytes, 0);
  EXPECT_GE(coded_traffic.float_bytes, slotless_edges);
}

TEST(CodedActivations, FuseOffReproducesFusedForwardBitExactly) {
  // SessionOptions::fuse toggles only the float-in fused encode; both
  // settings must produce bit-identical logits (the fused pass applies
  // the same act_eval + nearest-index encode the unfused flow does) —
  // this is the invariant behind the BM_ForwardFused A/B benchmark.
  PoolGuard guard;
  set_default_pool_threads(4);
  for (const char* name : {"tiny_cnn", "tiny_vit"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    const Tensor x = random_batch(4, 3, 16, 83);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    runtime::InferenceSession fused(m);  // fuse defaults on
    fused.set_formats(w, a);
    nn::ActTraffic fused_traffic;
    const auto got = fused.run(x, false, &fused_traffic);

    runtime::SessionOptions unfused_opts;
    unfused_opts.fuse = false;
    runtime::InferenceSession unfused(m, unfused_opts);
    unfused.set_formats(w, a);
    nn::ActTraffic unfused_traffic;
    const auto ref = unfused.run(x, false, &unfused_traffic);

    ASSERT_TRUE(bits_equal(got.logits, ref.logits)) << name;
    // Same coded edges either way — fusion changes how codes are made,
    // never whether.
    EXPECT_EQ(fused_traffic.coded_bytes, unfused_traffic.coded_bytes) << name;
    EXPECT_EQ(fused_traffic.float_bytes, unfused_traffic.float_bytes) << name;
    EXPECT_GT(fused_traffic.coded_bytes, 0) << name;
  }
}

TEST(CodedActivations, PlamSessionRunsAndApproximationEngages) {
  // LP_APPROX=plam end-to-end smoke at the session level: the snapshot
  // executes, logits stay finite, and the approximate multiply actually
  // changes the result (kernel-level error bounds live in test_kernels).
  const nn::Model m = nn::build_model("tiny_vit", small_opts());
  const Tensor x = random_batch(2, 3, 16, 91);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);

  runtime::SessionOptions exact_opts;
  exact_opts.approx = kernels::ApproxMode::kExact;  // env-robust reference
  runtime::InferenceSession exact(m, exact_opts);
  exact.set_formats(w, a);
  const auto ref = exact.run(x);

  runtime::SessionOptions plam_opts;
  plam_opts.approx = kernels::ApproxMode::kPlam;
  runtime::InferenceSession plam(m, plam_opts);
  plam.set_formats(w, a);
  const auto got = plam.run(x);

  ASSERT_EQ(got.logits.shape(), ref.logits.shape());
  for (const float v : got.logits.data()) ASSERT_TRUE(std::isfinite(v));
  EXPECT_FALSE(bits_equal(got.logits, ref.logits));
}

TEST(CodedActivations, CaptureHooksForceFloatPathAndStayBitIdentical) {
  // Pooled capture needs the dense activations, so a capturing run must
  // fall back to float on every edge — and still produce the same pooled
  // rows and logits as the float session.
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor x = random_batch(3, 3, 16, 91);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);

  runtime::SessionOptions float_opts;
  float_opts.coded_activations = false;
  runtime::InferenceSession float_session(m, float_opts);
  float_session.set_formats(w, a);
  const auto ref = float_session.run(x, /*capture_pooled=*/true);

  runtime::InferenceSession coded_session(m);
  coded_session.set_formats(w, a);
  nn::ActTraffic traffic;
  const auto got = coded_session.run(x, /*capture_pooled=*/true, &traffic);
  EXPECT_EQ(traffic.coded_bytes, 0);
  ASSERT_TRUE(bits_equal(got.logits, ref.logits));
  EXPECT_EQ(got.pooled, ref.pooled);
}

TEST(CodedActivations, PerEdgeFloatFallback) {
  // A slot-sized act_coding span with null entries on odd slots: those
  // edges stay float, coded edges stay coded, logits unchanged.  Exercised
  // directly through the Model overload (the session builds all-or-nothing
  // spans; the per-edge contract must hold regardless).
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor x = random_batch(2, 3, 16, 13);
  const auto wc = varied_weight_cfgs(m);
  const auto ac = varied_act_cfgs(wc);
  const std::size_t n = m.num_slots();

  std::vector<std::unique_ptr<LPFormat>> storage;
  nn::QuantSpec spec;
  spec.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    storage.push_back(std::make_unique<LPFormat>(wc[s]));
    spec.weight_fmt[s] = storage.back().get();
    storage.push_back(std::make_unique<LPFormat>(ac[s]));
    spec.act_fmt[s] = storage.back().get();
  }
  const auto ref = m.forward_quantized(x, spec);

  const std::vector<Tensor> qweights = nn::quantize_weights(m, spec);
  std::vector<const Tensor*> wptrs(n);
  for (std::size_t s = 0; s < n; ++s) wptrs[s] = &qweights[s];
  const std::vector<const PackedCodes*> no_codes(n, nullptr);

  std::vector<nn::ActCoding> coding(n);  // all-null: pure float
  for (std::size_t s = 0; s < n; s += 2) {
    const LPFormat* fmt = static_cast<const LPFormat*>(spec.act_fmt[s]);
    auto lut = build_decode_table(*fmt);
    ASSERT_NE(lut, nullptr);
    const int bits = PackedCodes::bits_for(lut->size(), 8);
    coding[s] = nn::ActCoding{fmt->quant_index(), std::move(lut), bits};
  }
  nn::ActTraffic traffic;
  const auto got = m.forward_with_weights(x, wptrs, no_codes, spec, coding,
                                          &traffic);
  ASSERT_TRUE(bits_equal(got.logits, ref.logits));
  EXPECT_GT(traffic.coded_bytes, 0);
  EXPECT_GT(traffic.float_bytes, 0);  // the odd slots really produced float
}

// --- ops level: fused codes-codes GEMM/conv on odd shapes ------------------

struct CodedPair {
  std::optional<PackedCodes> codes;
  Tensor dense;
};

/// Quantize `t` through `fmt` on the activation-style (byte-aligned)
/// packed path, returning both representations (dense = the float path's
/// quantized tensor, bit-identical to decoding the codes).
CodedPair code_tensor(const Tensor& t, const LPFormat& fmt, int min_bits) {
  CodedPair out;
  auto lut = build_decode_table(fmt);
  EXPECT_NE(lut, nullptr);
  out.codes = PackedCodes::pack(t.data(), t.shape(), fmt, lut, min_bits);
  EXPECT_TRUE(out.codes.has_value());
  out.dense = t;
  quantize_inplace(out.dense, fmt);
  return out;
}

TEST(CodedGemm, CodesCodesMatchesFloatOnOddShapes) {
  const LPFormat wf(LPConfig{4, 1, 2, 1.0});   // 4-bit weights
  const LPFormat af(LPConfig{8, 2, 4, 0.25});  // 8-bit activations
  Rng rng(515);
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 7, 5}, {5, 17, 9}, {16, 33, 16}, {8, 129, 31}};
  for (const auto& s : shapes) {
    Tensor a({s.m, s.k});
    Tensor b({s.n, s.k});
    Tensor bias({s.n});
    for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const CodedPair ca = code_tensor(a, af, /*min_bits=*/8);
    const CodedPair cb = code_tensor(b, wf, /*min_bits=*/0);
    const Tensor* bias_ptrs[] = {nullptr, &bias};
    for (const Tensor* bp : bias_ptrs) {
      const Tensor ref = matmul_nt(ca.dense, cb.dense, bp);
      const Tensor got = matmul_nt_codes_codes(*ca.codes, *cb.codes, bp);
      ASSERT_TRUE(bits_equal(got, ref))
          << s.m << "x" << s.k << "x" << s.n << (bp != nullptr ? " +bias" : "");
    }
  }
}

TEST(CodedGemm, FusedEncodeEpilogueMatchesQuantizeOfFloatResult) {
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(929);
  Tensor a({7, 19});
  Tensor b({11, 19});
  Tensor bias({11});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);

  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  for (const int act :
       {kernels::kActNone, kernels::kActRelu, kernels::kActGelu}) {
    ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                      PackedCodes::bits_for(out_lut->size(), 8), act};
    const auto coded = matmul_nt_codes_codes_enc(*ca.codes, *cb.codes, &bias,
                                                 enc);
    ASSERT_TRUE(coded.has_value()) << "act=" << act;

    // Reference: the float path — fused GEMM, nonlinearity, then one
    // quantize_batch pass — decoded codes must match bit-for-bit.
    Tensor ref = matmul_nt(ca.dense, cb.dense, &bias);
    for (float& v : ref.data()) v = kernels::act_eval(v, act);
    quantize_inplace(ref, af);
    Tensor got(coded->shape());
    coded->decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << "act=" << act;
  }
}

TEST(CodedGemm, FloatInFusedEncodeMatchesUnfusedFlow) {
  // The float-activation x coded-weight fusion (PR's tentpole): the
  // GEMM→bias→act→encode pass must produce exactly the codes the unfused
  // flow (finish the float block, act, quantize) produces.
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(1213);
  Tensor a({9, 23});
  Tensor b({13, 23});
  Tensor bias({13});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair cb = code_tensor(b, wf, 0);

  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  for (const int act :
       {kernels::kActNone, kernels::kActRelu, kernels::kActGelu}) {
    const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                            PackedCodes::bits_for(out_lut->size(), 8), act};
    const auto coded = matmul_nt_codes_enc(a, *cb.codes, &bias, enc);
    ASSERT_TRUE(coded.has_value()) << "act=" << act;

    Tensor ref = matmul_nt_codes(a, *cb.codes, &bias);
    for (float& v : ref.data()) v = kernels::act_eval(v, act);
    quantize_inplace(ref, af);
    Tensor got(coded->shape());
    coded->decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << "act=" << act;
  }
}

TEST(CodedGemm, FloatInFusedEncodeUnderPlamMatchesPlamThenEncode) {
  // The fused epilogue composes with the approximate multiply: fused plam
  // codes must equal encoding the unfused plam float result.
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(1719);
  Tensor a({7, 31});
  Tensor b({11, 31});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair cb = code_tensor(b, wf, 0);
  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                          PackedCodes::bits_for(out_lut->size(), 8),
                          kernels::kActRelu};
  const auto coded = matmul_nt_codes_enc(a, *cb.codes, nullptr, enc,
                                         kernels::ApproxMode::kPlam);
  ASSERT_TRUE(coded.has_value());
  Tensor ref =
      matmul_nt_codes(a, *cb.codes, nullptr, kernels::ApproxMode::kPlam);
  const Tensor exact = matmul_nt_codes(a, *cb.codes, nullptr);
  EXPECT_FALSE(bits_equal(ref, exact));  // the approximation really ran
  for (float& v : ref.data()) v = kernels::act_eval(v, kernels::kActRelu);
  quantize_inplace(ref, af);
  Tensor got(coded->shape());
  coded->decode(got.data());
  ASSERT_TRUE(bits_equal(got, ref));
}

TEST(CodedConv, FloatInFusedEncodeMatchesUnfusedFlow) {
  // conv2d_codes_enc: float input, coded weights, fused encode epilogue —
  // same contract as the GEMM variant, across padding/groups/stride.
  const LPFormat wf(LPConfig{4, 1, 2, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  Rng rng(2311);
  const struct {
    std::int64_t n, c, h, co, k, stride, padding, groups;
  } cases[] = {
      {1, 3, 7, 5, 3, 1, 1, 1},
      {2, 4, 9, 6, 3, 2, 1, 2},
      {1, 2, 5, 4, 1, 1, 0, 1},
  };
  for (const auto& t : cases) {
    Tensor input({t.n, t.c, t.h, t.h});
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair cw = code_tensor(weight, wf, 0);
    const ActEncodeSpec enc{af.quant_index()->view(), lut,
                            PackedCodes::bits_for(lut->size(), 8),
                            kernels::kActRelu};
    const auto coded = conv2d_codes_enc(input, *cw.codes, &bias, spec, enc);
    ASSERT_TRUE(coded.has_value()) << t.c << "ch groups=" << t.groups;

    Tensor ref = conv2d_codes(input, *cw.codes, &bias, spec);
    for (float& v : ref.data()) v = kernels::act_eval(v, kernels::kActRelu);
    quantize_inplace(ref, af);
    Tensor got(coded->shape());
    coded->decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << t.c << "ch groups=" << t.groups;
  }
}

TEST(CodedGemm, EncodeFailsOnNonFiniteOutput) {
  const LPFormat wf(LPConfig{4, 1, 2, 0.0});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Tensor a({2, 3});
  Tensor b({2, 3});
  for (float& v : a.data()) v = 1.0F;
  for (float& v : b.data()) v = 1.0F;
  Tensor bias({2});
  bias[0] = std::numeric_limits<float>::infinity();
  bias[1] = 0.0F;
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);
  auto out_lut = build_decode_table(af);
  const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                          PackedCodes::bits_for(out_lut->size(), 8),
                          kernels::kActNone};
  EXPECT_FALSE(
      matmul_nt_codes_codes_enc(*ca.codes, *cb.codes, &bias, enc).has_value());
  // encode_acts hits the same escape hatch on a non-finite float tensor.
  Tensor nf({2});
  nf[0] = std::numeric_limits<float>::quiet_NaN();
  nf[1] = 1.0F;
  EXPECT_FALSE(encode_acts(nf, enc).has_value());
}

TEST(CodedGemm, Rank3ActivationOperandFlattensToRows) {
  // [B, T, K] coded activations against [N, K] coded weights — the linear
  // layer's token layout — must equal the flattened rank-2 product.
  const LPFormat wf(LPConfig{8, 2, 4, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(33);
  Tensor a({2, 5, 9});
  Tensor b({4, 9});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);
  const Tensor got = matmul_nt_codes_codes(*ca.codes, *cb.codes, nullptr);
  ASSERT_EQ(got.dim(0), 10);
  ASSERT_EQ(got.dim(1), 4);
  const Tensor ref =
      matmul_nt(ca.dense.reshaped({10, 9}), cb.dense, nullptr);
  ASSERT_TRUE(bits_equal(got, ref));
}

TEST(CodedConv, CodesCodesMatchesFloatWithPaddingAndGroups) {
  const LPFormat wf(LPConfig{4, 1, 2, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto in_lut = build_decode_table(af);
  ASSERT_NE(in_lut, nullptr);
  const std::int64_t zc = lut_zero_code(*in_lut);
  ASSERT_GE(zc, 0) << "LP activation table must contain exact +0.0f";

  Rng rng(4711);
  const struct {
    std::int64_t n, c, h, co, k, stride, padding, groups;
  } cases[] = {
      {1, 3, 7, 5, 3, 1, 1, 1},   // odd spatial, padded
      {2, 4, 9, 6, 3, 2, 1, 2},   // strided, grouped
      {2, 6, 8, 6, 3, 1, 1, 6},   // depthwise
      {1, 2, 5, 4, 1, 1, 0, 1},   // 1x1, no padding
  };
  for (const auto& t : cases) {
    Tensor input({t.n, t.c, t.h, t.h});
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair ci = code_tensor(input, af, 8);
    const CodedPair cw = code_tensor(weight, wf, 0);

    const Tensor ref = conv2d(ci.dense, cw.dense, &bias, spec);
    const Tensor got = conv2d_codes_codes(
        *ci.codes, *cw.codes, &bias, spec, static_cast<std::uint32_t>(zc));
    ASSERT_TRUE(bits_equal(got, ref))
        << t.c << "ch groups=" << t.groups << " pad=" << t.padding;

    // Fused encode epilogue: decode must equal relu+quantize of the float
    // conv output.
    ActEncodeSpec enc{af.quant_index()->view(), in_lut,
                      PackedCodes::bits_for(in_lut->size(), 8),
                      kernels::kActRelu};
    const auto coded = conv2d_codes_codes_enc(*ci.codes, *cw.codes, &bias,
                                              spec,
                                              static_cast<std::uint32_t>(zc),
                                              enc);
    ASSERT_TRUE(coded.has_value());
    Tensor fused_ref = ref;
    for (float& v : fused_ref.data()) {
      v = kernels::act_eval(v, kernels::kActRelu);
    }
    quantize_inplace(fused_ref, af);
    Tensor decoded(coded->shape());
    coded->decode(decoded.data());
    ASSERT_TRUE(bits_equal(decoded, fused_ref));
  }
}

TEST(CodedConv, TiledCodesCodesMatchesFloatAbovePoolThreshold) {
  // Every case but the last is above the serial threshold, so the
  // implicit-GEMM schedule splits it into column and/or row tiles; odd
  // column counts leave partial panels and odd channel counts leave
  // micro-kernel row tails.  The 8200-wide case has a tile straddling
  // two long output rows, whose input region is too large to stage (the
  // SIMD tiles fall back to the reference gather there).  The last case
  // is a 3-byte input stream.  Results must not depend on the pool width
  // or the activation code width.
  PoolGuard guard;
  const LPFormat wf(LPConfig{8, 1, 4, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto in_lut = build_decode_table(af);
  ASSERT_NE(in_lut, nullptr);
  const std::int64_t zc = lut_zero_code(*in_lut);
  ASSERT_GE(zc, 0);

  const struct {
    std::int64_t n, c, h, w, co, k, stride, padding, groups;
  } cases[] = {
      {3, 8, 13, 13, 10, 3, 1, 1, 1},    // 507 columns, 10 output channels
      {2, 4, 20, 20, 6, 3, 1, 1, 1},     // panels inside one output row
      {3, 16, 13, 13, 14, 3, 2, 1, 2},   // strided + padded, 2 groups
      {3, 24, 11, 11, 24, 3, 1, 1, 24},  // depthwise
      {3, 16, 14, 14, 34, 1, 2, 0, 1},   // 1x1 stride-2 downsample
      {3, 32, 3, 3, 70, 3, 1, 1, 1},     // 27 columns, 70 rows: row tiles
      {1, 64, 2, 8200, 4, 1, 1, 0, 1},   // region too large to stage
      {1, 3, 1, 1, 5, 1, 1, 0, 1},       // 3-byte input stream
  };
  Rng rng(2024);
  for (const auto& t : cases) {
    Tensor input({t.n, t.c, t.h, t.w});
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair cw = code_tensor(weight, wf, 0);
    for (const int act_bits : {8, 16}) {
      const CodedPair ci = code_tensor(input, af, act_bits);
      ASSERT_EQ(ci.codes->code_bits(), act_bits);
      const ActEncodeSpec enc{af.quant_index()->view(), in_lut,
                              PackedCodes::bits_for(in_lut->size(), act_bits),
                              kernels::kActRelu};
      for (const int threads : {1, 3, 8}) {
        set_default_pool_threads(threads);
        const Tensor ref = conv2d(ci.dense, cw.dense, &bias, spec);
        const Tensor got = conv2d_codes_codes(
            *ci.codes, *cw.codes, &bias, spec, static_cast<std::uint32_t>(zc));
        ASSERT_TRUE(bits_equal(got, ref))
            << t.c << "ch co=" << t.co << " groups=" << t.groups
            << " bits=" << act_bits << " threads=" << threads;

        const auto coded = conv2d_codes_codes_enc(
            *ci.codes, *cw.codes, &bias, spec, static_cast<std::uint32_t>(zc),
            enc);
        ASSERT_TRUE(coded.has_value());
        ASSERT_EQ(coded->code_bits(), act_bits);
        Tensor fused_ref = relu(ref);
        quantize_inplace(fused_ref, af);
        Tensor decoded(coded->shape());
        coded->decode(decoded.data());
        ASSERT_TRUE(bits_equal(decoded, fused_ref))
            << t.c << "ch co=" << t.co << " groups=" << t.groups
            << " bits=" << act_bits << " threads=" << threads;
      }
    }
  }
}

/// One conv over a float input through table `t`'s tile, one tile per
/// group covering all of it (the ops-level entry points run the
/// dispatched table only), finished through `sink` (float or encode;
/// bias, cout and ch_begin are filled in here).  Returns the tile's
/// encodability flag, ANDed over groups.
bool table_conv_float_in(const kernels::KernelTable& t, const Tensor& input,
                         const PackedCodes& weight, const Tensor& bias,
                         const Conv2dSpec& spec, kernels::ConvTileSink sink) {
  const std::int64_t groups = spec.groups;
  const std::int64_t cout = weight.dim(0);
  const std::int64_t cg_out = cout / groups;
  kernels::ConvPatchView x;
  x.data = reinterpret_cast<const std::uint8_t*>(input.raw());
  x.bits = 32;
  x.batch = input.dim(0);
  x.c_total = input.dim(1);
  x.h = input.dim(2);
  x.w = input.dim(3);
  x.c_count = x.c_total / groups;
  x.kh = weight.dim(2);
  x.kw = weight.dim(3);
  x.stride = spec.stride;
  x.padding = spec.padding;
  x.ho = conv_out_dim(x.h, x.kh, spec.stride, spec.padding);
  x.wo = conv_out_dim(x.w, x.kw, spec.stride, spec.padding);
  const std::int64_t k = x.c_count * x.kh * x.kw;
  sink.cout = cout;
  bool ok = true;
  for (std::int64_t g = 0; g < groups; ++g) {
    kernels::ConvPatchView xg = x;
    xg.c_begin = g * x.c_count;
    kernels::ConvTileSink sg = sink;
    sg.ch_begin = g * cg_out;
    sg.bias = bias.raw() + g * cg_out;
    ok = t.conv_codes_tile(weight.view(g * cg_out * k), xg, sg, 0, cg_out, 0,
                           x.batch * x.ho * x.wo) &&
         ok;
  }
  return ok;
}

/// Bitwise equality that also accepts two NaNs with different payloads:
/// the contract fixes where NaN appears, not which NaN an add of two
/// NaNs propagates.
bool same_or_both_nan(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.raw()[i];
    const float y = b.raw()[i];
    if (std::bit_cast<std::uint32_t>(x) != std::bit_cast<std::uint32_t>(y) &&
        !(std::isnan(x) && std::isnan(y))) {
      return false;
    }
  }
  return true;
}

TEST(CodedConv, FloatInTileMatchesFloatConvOnEveryTableAndPoolWidth) {
  // conv2d_codes / conv2d_codes_enc (float input, coded weights) run the
  // implicit-GEMM tile over the float stream.  Against conv2d over the
  // decoded weights: the stem's 3 input channels, stride 2 + padding,
  // groups, depthwise, the 1x1 stride-2 downsample, partial panels
  // (n % 16 != 0), row tiles, a wide input whose tile exceeds the region
  // cap, and inputs holding -0.0 and denormals (every output finite) or
  // ±inf and NaN (non-finite outputs: conv2d_codes matches, the fused
  // encode reports nullopt).  Dispatched table at pool widths 1/3/8, and
  // every table's tile directly.
  PoolGuard guard;
  const LPFormat wf(LPConfig{8, 1, 4, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  const ActEncodeSpec enc{af.quant_index()->view(), lut,
                          PackedCodes::bits_for(lut->size(), 8),
                          kernels::kActRelu};
  const struct {
    std::int64_t n, c, h, w, co, k, stride, padding, groups;
  } cases[] = {
      {4, 3, 32, 32, 16, 3, 1, 1, 1},    // the stem: 3 input channels
      {3, 8, 13, 13, 10, 3, 1, 1, 1},    // 507 columns: partial panels
      {3, 16, 13, 13, 14, 3, 2, 1, 2},   // strided + padded, 2 groups
      {3, 24, 11, 11, 24, 3, 1, 1, 24},  // depthwise
      {3, 16, 14, 14, 34, 1, 2, 0, 1},   // 1x1 stride-2 downsample
      {3, 32, 3, 3, 70, 3, 1, 1, 1},     // 27 columns, 70 rows: row tiles
      {1, 64, 2, 8200, 4, 1, 1, 0, 1},   // region too large to stage
      {1, 3, 1, 1, 5, 1, 1, 0, 1},       // 3-element input
  };
  Rng rng(4242);
  for (const auto& t : cases) {
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair cw = code_tensor(weight, wf, 0);
    for (const bool non_finite : {false, true}) {
      Tensor input({t.n, t.c, t.h, t.w});
      for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
      const std::int64_t numel = input.numel();
      const float specials[] = {-0.0F,
                                1e-42F,
                                -3e-39F,
                                std::numeric_limits<float>::denorm_min(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN()};
      const int nspecial = non_finite ? 7 : 4;
      for (std::int64_t e = 0; e < numel; e += 7) {
        input.raw()[e] = specials[(e / 7) % nspecial];
      }
      if (non_finite) input.raw()[numel - 1] = specials[6];
      const Tensor ref = conv2d(input, cw.dense, &bias, spec);
      Tensor fused_ref = relu(ref);
      bool finite = true;
      for (const float v : fused_ref.data()) finite = finite && std::isfinite(v);
      ASSERT_EQ(finite, !non_finite) << "case must exercise its outputs";
      if (finite) quantize_inplace(fused_ref, af);
      const std::string tag = std::to_string(t.c) + "ch co=" +
                              std::to_string(t.co) + " groups=" +
                              std::to_string(t.groups) +
                              (non_finite ? " non-finite" : " finite");

      for (const int threads : {1, 3, 8}) {
        set_default_pool_threads(threads);
        const Tensor got = conv2d_codes(input, *cw.codes, &bias, spec);
        ASSERT_TRUE(same_or_both_nan(got, ref)) << tag << " threads=" << threads;
        const auto coded = conv2d_codes_enc(input, *cw.codes, &bias, spec, enc);
        ASSERT_EQ(coded.has_value(), finite) << tag << " threads=" << threads;
        if (coded.has_value()) {
          Tensor decoded(coded->shape());
          coded->decode(decoded.data());
          ASSERT_TRUE(bits_equal(decoded, fused_ref))
              << tag << " threads=" << threads;
        }
      }

      for (const kernels::KernelTable* kt : kernels::available_kernels()) {
        Tensor got(ref.shape());
        kernels::ConvTileSink sink;
        sink.out = got.raw();
        ASSERT_TRUE(table_conv_float_in(*kt, input, *cw.codes, bias, spec, sink));
        ASSERT_TRUE(same_or_both_nan(got, ref)) << kt->name << " " << tag;

        std::vector<std::uint8_t> codes(
            PackedCodes::stream_bytes(ref.numel(), enc.bits));
        const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
        sink = {};
        sink.ep = &ep;
        ASSERT_EQ(table_conv_float_in(*kt, input, *cw.codes, bias, spec, sink),
                  finite)
            << kt->name << " " << tag;
        if (finite) {
          const PackedCodes pc = PackedCodes::from_codes(
              std::move(codes), ref.shape(), enc.bits, enc.lut);
          Tensor decoded(ref.shape());
          pc.decode(decoded.data());
          ASSERT_TRUE(bits_equal(decoded, fused_ref)) << kt->name << " " << tag;
        }
      }
    }
  }
}

TEST(CodedOps, BatchedEncodersMatchEncodeElemOnEveryTable) {
  // detail::encode_elem is the per-element definition of the fused
  // encode: act, nearest index, code write — or false and no write for a
  // non-finite activated value.  encode_row_block, every table's nearest
  // index search and every table's conv tile encode sink (over a float
  // and over a coded input) must agree with it element for element on
  // -0.0, denormals, exact table values, tie midpoints, ±inf and NaN.
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  const std::vector<float>& table = *lut;
  std::vector<float> vals = {0.0F,
                             -0.0F,
                             1e-42F,
                             -1e-42F,
                             std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             3.0e38F,
                             -3.0e38F};
  std::vector<float> sorted = table;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    vals.push_back(sorted[i]);
    // The midpoint where it is exact in float: a tie.
    vals.push_back(static_cast<float>(
        (static_cast<double>(sorted[i]) + sorted[i + 1]) / 2.0));
  }
  Rng rng(99);
  while (vals.size() % 16 != 5) {
    vals.push_back(static_cast<float>(rng.gaussian(0.0, 4.0)));
  }
  const auto n = static_cast<std::int64_t>(vals.size());
  constexpr std::uint8_t kUnwritten = 0xA5;
  for (const int act : {kernels::kActNone, kernels::kActRelu,
                        kernels::kActRelu6, kernels::kActGelu}) {
    // Reference: encode_elem per element into an untouched stream.
    std::vector<std::uint8_t> ref(PackedCodes::stream_bytes(n, 16), kUnwritten);
    kernels::ActEncode ep{af.quant_index()->view(), ref.data(), 16, act};
    bool ref_ok = true;
    int unencodable = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const bool ok = kernels::detail::encode_elem(ep, vals[i], i);
      const float y = kernels::act_eval(vals[i], act);
      ASSERT_EQ(ok, std::isfinite(y)) << "i=" << i << " act=" << act;
      if (!ok) {
        ++unencodable;
        EXPECT_EQ(ref[i * 2], kUnwritten);
        EXPECT_EQ(ref[i * 2 + 1], kUnwritten);
      }
      ref_ok = ref_ok && ok;
    }
    ASSERT_GT(unencodable, 0);

    std::vector<std::uint8_t> got(ref.size(), kUnwritten);
    ep.codes = got.data();
    EXPECT_EQ(kernels::detail::encode_row_block(ep, vals.data(), 0, n), ref_ok);
    EXPECT_EQ(got, ref) << "encode_row_block act=" << act;

    for (const kernels::KernelTable* t : kernels::available_kernels()) {
      std::vector<float> acts(vals.size());
      for (std::size_t i = 0; i < vals.size(); ++i) {
        acts[i] = kernels::act_eval(vals[i], act);
      }
      std::vector<std::uint32_t> idx(vals.size());
      t->nearest_indices(ep.qidx, acts.data(), idx.data(), vals.size());
      for (std::int64_t i = 0; i < n; ++i) {
        if (idx[i] == kernels::kInvalidIndex) {
          EXPECT_EQ(ref[i * 2], kUnwritten) << t->name << " i=" << i;
        } else {
          EXPECT_EQ(idx[i], kernels::packed_code_at(
                                {ref.data(), 0, 16, nullptr, 0}, i))
              << t->name << " i=" << i;
        }
      }

      // The tile encode sink: a 1x1 conv with one weight decoding to 1.0
      // over [1, 1, 1, n] passes every finite value through exactly; the
      // float sink's output is the value the encoder sees, so the codes
      // must be encode_elem of it.  Same stream, read as floats or as
      // 16-bit codes of a LUT holding the values.
      const float wlut[2] = {0.0F, 1.0F};
      const std::uint8_t wcode = 1;
      const kernels::PackedCodesView a{&wcode, 0, 8, wlut, 2};
      std::vector<std::uint8_t> in_codes(PackedCodes::stream_bytes(n, 16));
      for (std::int64_t i = 0; i < n; ++i) {
        kernels::packed_code_write(in_codes.data(), 16, i,
                                   static_cast<std::uint32_t>(i));
      }
      for (const bool coded_in : {false, true}) {
        kernels::ConvPatchView x;
        x.data = coded_in ? in_codes.data()
                          : reinterpret_cast<const std::uint8_t*>(vals.data());
        x.bits = coded_in ? 16 : 32;
        x.lut = coded_in ? vals.data() : nullptr;
        x.lut_size = coded_in ? static_cast<std::uint32_t>(n) : 0;
        x.batch = 1;
        x.c_total = 1;
        x.h = 1;
        x.w = n;
        x.c_count = 1;
        x.ho = 1;
        x.wo = n;
        std::vector<float> out(vals.size());
        kernels::ConvTileSink sink;
        sink.cout = 1;
        sink.out = out.data();
        ASSERT_TRUE(t->conv_codes_tile(a, x, sink, 0, 1, 0, n));
        std::vector<std::uint8_t> tile_ref(ref.size(), kUnwritten);
        kernels::ActEncode tile_ep = ep;
        tile_ep.codes = tile_ref.data();
        bool tile_ok = true;
        for (std::int64_t i = 0; i < n; ++i) {
          tile_ok = kernels::detail::encode_elem(tile_ep, out[i], i) && tile_ok;
        }
        std::vector<std::uint8_t> tile_got(ref.size(), kUnwritten);
        tile_ep.codes = tile_got.data();
        sink = {};
        sink.cout = 1;
        sink.ep = &tile_ep;
        EXPECT_EQ(t->conv_codes_tile(a, x, sink, 0, 1, 0, n), tile_ok);
        EXPECT_EQ(tile_got, tile_ref)
            << t->name << (coded_in ? " coded" : " float") << " act=" << act;
      }
    }
  }
}

#if defined(__linux__)
TEST(CodedConv, TileGathersStayInsideTheCodeStream) {
  // The SIMD tiles load and gather patch elements with vector
  // instructions the sanitizers do not check.  Place the input stream (8-
  // and 16-bit codes, or floats) flush against an inaccessible page on
  // either side: a read outside it faults.  Every table must also agree
  // with the scalar reference bit for bit.
  const std::int64_t page = sysconf(_SC_PAGESIZE);
  std::vector<float> lut(300);
  for (std::size_t i = 0; i < lut.size(); ++i) {
    lut[i] = static_cast<float>(static_cast<int>(i % 7) - 3);
  }
  const std::uint32_t zero_code = 3;  // lut[3] == +0.0f
  std::vector<float> wlut(16);
  for (std::size_t i = 0; i < wlut.size(); ++i) {
    wlut[i] = 0.25F * static_cast<float>(i) - 2.0F;
  }
  const struct {
    std::int64_t n, c, h, k, stride, padding;
  } shapes[] = {
      {1, 3, 5, 3, 1, 1}, {2, 5, 7, 3, 2, 1}, {1, 9, 1, 1, 1, 0},
      {3, 2, 6, 3, 1, 1}, {1, 1, 2, 1, 1, 0}, {2, 4, 20, 3, 1, 1},
  };
  constexpr std::int64_t kRows = 6;
  for (const auto& sh : shapes) {
    const std::int64_t ho = conv_out_dim(sh.h, sh.k, sh.stride, sh.padding);
    const std::int64_t k = sh.c * sh.k * sh.k;
    const std::int64_t cols = sh.n * ho * ho;
    std::vector<std::uint8_t> wcodes(static_cast<std::size_t>(kRows * k));
    for (std::size_t i = 0; i < wcodes.size(); ++i) {
      wcodes[i] = static_cast<std::uint8_t>((i * 5 + 3) % 16);
    }
    const kernels::PackedCodesView a{wcodes.data(), 0, 8, wlut.data(), 16};
    for (const int bits : {8, 16, 32}) {
      const std::int64_t numel = sh.n * sh.c * sh.h * sh.h;
      const std::int64_t nbytes = numel * bits / 8;
      const std::int64_t span = ((nbytes + page - 1) / page + 2) * page;
      void* map = mmap(nullptr, static_cast<std::size_t>(span),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
      ASSERT_NE(map, MAP_FAILED);
      auto* base = static_cast<std::uint8_t*>(map);
      ASSERT_EQ(mprotect(base, static_cast<std::size_t>(page), PROT_NONE), 0);
      ASSERT_EQ(mprotect(base + span - page, static_cast<std::size_t>(page),
                         PROT_NONE),
                0);
      for (std::uint8_t* data : {base + page, base + span - page - nbytes}) {
        for (std::int64_t e = 0; e < numel; ++e) {
          const auto code = static_cast<std::uint32_t>(
              (e * 37 + 11) % (bits == 8 ? 256 : 300));
          if (bits == 32) {
            std::memcpy(data + e * 4, &lut[code], sizeof(float));
          } else {
            kernels::packed_code_write(data, bits, e, code);
          }
        }
        kernels::ConvPatchView x;
        x.data = data;
        x.bits = bits;
        x.lut = bits == 32 ? nullptr : lut.data();
        x.lut_size = bits == 8 ? 256 : 300;
        x.zero_code = zero_code;
        x.batch = sh.n;
        x.c_total = sh.c;
        x.h = sh.h;
        x.w = sh.h;
        x.c_count = sh.c;
        x.kh = sh.k;
        x.kw = sh.k;
        x.stride = sh.stride;
        x.padding = sh.padding;
        x.ho = ho;
        x.wo = ho;
        std::vector<float> ref;
        for (const kernels::KernelTable* t : kernels::available_kernels()) {
          std::vector<float> out(static_cast<std::size_t>(kRows * cols));
          kernels::ConvTileSink sink;
          sink.cout = kRows;
          sink.out = out.data();
          ASSERT_TRUE(t->conv_codes_tile(a, x, sink, 0, kRows, 0, cols));
          if (ref.empty()) {
            ref = out;
          } else {
            ASSERT_EQ(std::memcmp(ref.data(), out.data(),
                                  out.size() * sizeof(float)),
                      0)
                << t->name << " c=" << sh.c << " h=" << sh.h
                << " bits=" << bits;
          }
        }
      }
      ASSERT_EQ(munmap(map, static_cast<std::size_t>(span)), 0);
    }
  }
}
#endif

TEST(CodedOps, EncodeActsRoundTripOnOddSizes) {
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  Rng rng(61);
  for (const std::int64_t n : {1LL, 3LL, 255LL, 257LL, 40000LL}) {
    Tensor t({n});
    for (float& v : t.data()) v = static_cast<float>(rng.gaussian());
    const ActEncodeSpec enc{af.quant_index()->view(), lut,
                            PackedCodes::bits_for(lut->size(), 8),
                            kernels::kActNone};
    const auto coded = encode_acts(t, enc);
    ASSERT_TRUE(coded.has_value()) << n;
    Tensor ref = t;
    quantize_inplace(ref, af);
    Tensor got(coded->shape());
    coded->decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << n;
  }
}

// --- cache stats: weight vs activation LUT split ---------------------------

TEST(CodedActivations, CacheStatsSplitWeightAndActLutBytes) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  runtime::InferenceSession session(m);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  session.set_formats(w, a);
  const runtime::CacheStats st = session.stats();
  EXPECT_GT(st.lut_bytes, 0U);
  EXPECT_GT(st.act_lut_bytes, 0U);
  // Both LUT pools are charged inside the physical byte total.
  EXPECT_LE(st.lut_bytes + st.act_lut_bytes, st.bytes);

  // With coded activations off, no activation LUTs are interned.
  runtime::SessionOptions opts;
  opts.coded_activations = false;
  runtime::InferenceSession plain(m, opts);
  plain.set_formats(w, a);
  EXPECT_EQ(plain.stats().act_lut_bytes, 0U);
  EXPECT_GT(plain.stats().lut_bytes, 0U);
}

TEST(CodedActivations, AddNodeMatchesDecodeThenAddOnEveryOperandForm) {
  // AddNode reads each operand in place as floats or LUT-decoded codes and
  // writes act(a + b) in one pooled pass; that must equal add() +
  // apply_act() over the decoded tensors bit for bit, for every pairing
  // of float, 8-bit and 16-bit operands, at any pool width.  The size is
  // not a multiple of the node's decode block, and the values include
  // -0.0, inf and NaN.
  PoolGuard guard;
  const std::vector<std::int64_t> shape = {3, 5, 7, 101};
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) numel *= d;
  auto lut8 = std::make_shared<DecodeTable>(256);
  auto lut16 = std::make_shared<DecodeTable>(1024);
  Rng rng(91);
  for (auto* lut : {lut8.get(), lut16.get()}) {
    for (float& v : *lut) v = static_cast<float>(rng.gaussian());
    (*lut)[0] = -0.0F;
    (*lut)[1] = std::numeric_limits<float>::infinity();
    (*lut)[2] = std::numeric_limits<float>::quiet_NaN();
  }
  const auto codes_of = [&](int bits, std::uint64_t seed) {
    Rng r(seed);
    const std::size_t lut_size = bits == 8 ? lut8->size() : lut16->size();
    std::vector<std::uint8_t> data(
        PackedCodes::stream_bytes(numel, bits));
    for (std::int64_t e = 0; e < numel; ++e) {
      kernels::packed_code_write(
          data.data(), bits, e,
          static_cast<std::uint32_t>(
              r.uniform(0.0, static_cast<double>(lut_size) - 0.5)));
    }
    return PackedCodes::from_codes(std::move(data), shape, bits,
                                   bits == 8 ? lut8 : lut16);
  };
  Tensor dense(shape);
  for (float& v : dense.data()) v = static_cast<float>(rng.gaussian());
  dense.raw()[5] = -0.0F;
  const std::vector<nn::NodeValue> operands = {
      nn::NodeValue(dense), nn::NodeValue(codes_of(8, 3)),
      nn::NodeValue(codes_of(16, 4))};
  for (const nn::Act act : {nn::Act::kNone, nn::Act::kRelu}) {
    const nn::AddNode node(0, 1, "add", act);
    for (const nn::NodeValue& a : operands) {
      for (const nn::NodeValue& b : operands) {
        Tensor want = add(a.dense(), b.dense());
        nn::apply_act(want, act);
        for (const int threads : {1, 4}) {
          set_default_pool_threads(threads);
          const nn::NodeValue* in[2] = {&a, &b};
          const Tensor got = node.run(in, nn::RunCtx{}).dense();
          ASSERT_TRUE(bits_equal(got, want))
              << "threads=" << threads << " a_bits="
              << (a.codes() != nullptr ? a.codes()->code_bits() : 32)
              << " b_bits="
              << (b.codes() != nullptr ? b.codes()->code_bits() : 32);
        }
      }
    }
  }
}

}  // namespace
}  // namespace lp
