// Bit-equality contract of the kernel dispatch layer: every table in
// kernels::available_kernels() must reproduce the scalar reference
// bit-for-bit — GEMM (both B layouts), quantize chunks, and nearest
// indices — on adversarial inputs: denormals, ±inf-adjacent magnitudes,
// NaN/inf, structural zeros under infinities (the zero-skip), tie
// midpoints, and sizes that are not multiples of the vector width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <string>
#include <string_view>
#include <utility>

#include "core/lp_codec.h"
#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "core/quant_index.h"
#include "core/quant_rule.h"
#include "kernels/kernels.h"
#include "lpa/systolic.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using namespace lp;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = 1e-42F;  // subnormal
constexpr float kHuge = 3.0e38F;   // just below FLT_MAX

/// Adversarial fill: gaussians spanning many magnitudes with special
/// values (zeros, denormals, ±huge) injected at deterministic positions.
void fill_adversarial(float* data, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-42.0, 38.0));
    data[i] = static_cast<float>(rng.gaussian() * mag);
  }
  for (std::int64_t i = 0; i < n; i += 7) data[i] = 0.0F;
  for (std::int64_t i = 3; i < n; i += 11) data[i] = kDenorm;
  for (std::int64_t i = 5; i < n; i += 13) data[i] = -kHuge;
  for (std::int64_t i = 8; i < n; i += 17) data[i] = kHuge;
  if (n > 2) data[2] = -0.0F;
}

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

/// 16-bit code stream 0, 1, ..., n - 1: over a LUT holding a float matrix
/// it is a coded operand that decodes to exactly that matrix.
std::vector<std::uint8_t> identity_codes(std::size_t n) {
  std::vector<std::uint8_t> stream(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    stream[2 * i] = static_cast<std::uint8_t>(i & 0xFFU);
    stream[2 * i + 1] = static_cast<std::uint8_t>(i >> 8);
  }
  return stream;
}

kernels::PackedCodesView coded16(const std::vector<std::uint8_t>& stream,
                                 const std::vector<float>& lut) {
  return {stream.data(), 0, 16, lut.data(),
          static_cast<std::uint32_t>(lut.size())};
}

constexpr std::uint8_t kUnwritten = 0xA5;

/// Oracle of the fused encode epilogue (act none, 8-bit codes): the codes
/// the nearest-index search assigns to the float result `c` — elements
/// it has no code for keep kUnwritten — and whether every element was
/// finite.
std::pair<std::vector<std::uint8_t>, bool> expected_codes(
    const kernels::QuantIndexView& q, const std::vector<float>& c) {
  std::vector<std::uint32_t> idx(c.size());
  kernels::scalar_kernels().nearest_indices(q, c.data(), idx.data(), c.size());
  std::vector<std::uint8_t> codes(c.size(), kUnwritten);
  bool ok = true;
  for (std::size_t e = 0; e < c.size(); ++e) {
    if (idx[e] == kernels::kInvalidIndex) {
      ok = false;
    } else {
      codes[e] = static_cast<std::uint8_t>(idx[e]);
    }
  }
  return {codes, ok};
}

struct GemmShape {
  std::int64_t m, k, n;
};

// Not multiples of the vector widths; m > 8 gives the SIMD tiers a second
// (often partial) A sliver.
const GemmShape kShapes[] = {{1, 1, 1},   {2, 3, 5},    {3, 7, 9},
                             {5, 16, 8},  {4, 17, 33},  {7, 64, 31},
                             {8, 129, 40}, {9, 33, 17},  {13, 40, 35},
                             {17, 20, 48}, {24, 129, 16}};

class KernelTablesTest : public ::testing::Test {
 protected:
  std::vector<const kernels::KernelTable*> tables_ =
      kernels::available_kernels();
};

TEST_F(KernelTablesTest, ScalarAlwaysFirstAndComplete) {
  ASSERT_FALSE(tables_.empty());
  EXPECT_EQ(tables_[0], &kernels::scalar_kernels());
  for (const auto* t : tables_) {
    EXPECT_NE(t->name, nullptr);
    EXPECT_NE(t->gemm_rows, nullptr);
    EXPECT_NE(t->gemm_nt_rows, nullptr);
    EXPECT_NE(t->conv_codes_tile, nullptr);
    EXPECT_NE(t->quantize_chunk, nullptr);
    EXPECT_NE(t->nearest_indices, nullptr);
  }
}

TEST_F(KernelTablesTest, ByNameAndSelection) {
  EXPECT_EQ(kernels::by_name("scalar"), &kernels::scalar_kernels());
  EXPECT_EQ(kernels::by_name("not-a-kernel"), nullptr);
  EXPECT_STREQ(kernels::select_kernels("scalar").name, "scalar");
  // Unknown names warn and fall back to automatic selection.
  const kernels::KernelTable& fb = kernels::select_kernels("not-a-kernel");
  EXPECT_EQ(&fb, &kernels::select_kernels(nullptr));
  EXPECT_EQ(&fb, &kernels::select_kernels(""));
  // dispatch() must return a table this host can run.
  bool found = false;
  for (const auto* t : tables_) found = found || t == &kernels::dispatch();
  EXPECT_TRUE(found);
}

TEST_F(KernelTablesTest, DispatchHonorsLpKernelEnv) {
  // Guards the CI LP_KERNEL A/B legs against passing vacuously: when the
  // requested table is usable on this host, dispatch() must BE that table
  // (a silent fallback to scalar would make the avx2 leg meaningless).
  const char* requested = std::getenv("LP_KERNEL");
  if (requested == nullptr || *requested == '\0') {
    GTEST_SKIP() << "LP_KERNEL not set";
  }
  // "Usable" is defined by available_kernels() membership, so a future
  // table (avx512, ...) tightens this guard automatically.
  const kernels::KernelTable* t = kernels::by_name(requested);
  const bool usable = t != nullptr && std::find(tables_.begin(), tables_.end(),
                                                t) != tables_.end();
  if (!usable) GTEST_SKIP() << "LP_KERNEL=" << requested << " not usable here";
  EXPECT_STREQ(kernels::dispatch().name, requested);
}

TEST_F(KernelTablesTest, Avx2CompiledInOnCapableX86Builds) {
#if defined(__x86_64__)
  // gcc and clang both accept -mavx2 on x86-64, so a capable CPU paired
  // with a missing AVX2 table means the build-system probe regressed and
  // the SIMD path silently vanished.
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  EXPECT_NE(kernels::avx2_kernels(), nullptr);
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

TEST_F(KernelTablesTest, Avx2TableRequiresCpuSupport) {
  const kernels::KernelTable* avx2 = kernels::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not compiled into this build";
  EXPECT_STREQ(avx2->name, "avx2");
  const bool listed =
      tables_.size() > 1 && tables_[1] == avx2;
  EXPECT_EQ(listed, kernels::cpu_supports_avx2());
}

TEST_F(KernelTablesTest, Avx512CompiledInOnCapableX86Builds) {
#if defined(__x86_64__)
  // Same probe-regression guard as the AVX2 variant: gcc and clang both
  // accept -mavx512{f,bw,vl} on x86-64, so a capable CPU paired with a
  // missing table means the build gate silently dropped the widest tier.
  if (!kernels::cpu_supports_avx512()) GTEST_SKIP() << "CPU lacks AVX-512";
  EXPECT_NE(kernels::avx512_kernels(), nullptr);
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

TEST_F(KernelTablesTest, Avx512TableRequiresCpuSupport) {
  const kernels::KernelTable* avx512 = kernels::avx512_kernels();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 not compiled into this build";
  EXPECT_STREQ(avx512->name, "avx512");
  const bool listed =
      std::find(tables_.begin(), tables_.end(), avx512) != tables_.end();
  EXPECT_EQ(listed, kernels::cpu_supports_avx512());
  // A host with the avx512 table usable must auto-select it over avx2.
  if (kernels::cpu_supports_avx512()) {
    EXPECT_EQ(&kernels::select_kernels(nullptr), avx512);
  }
}

// --- dispatch fallback diagnostics -----------------------------------------

TEST(DispatchDiagnostics, KnownNameListIsExact) {
  EXPECT_TRUE(kernels::is_known_kernel_name("scalar"));
  EXPECT_TRUE(kernels::is_known_kernel_name("avx2"));
  EXPECT_TRUE(kernels::is_known_kernel_name("avx512"));
  EXPECT_FALSE(kernels::is_known_kernel_name("avx"));
  EXPECT_FALSE(kernels::is_known_kernel_name("AVX2"));
  EXPECT_FALSE(kernels::is_known_kernel_name(""));
}

TEST(DispatchDiagnostics, UnknownNameWarnsWithUnknownReason) {
  testing::internal::CaptureStderr();
  const kernels::KernelTable& fb = kernels::select_kernels("not-a-kernel");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("LP_KERNEL=not-a-kernel"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown kernel name"), std::string::npos) << err;
  EXPECT_NE(err.find(fb.name), std::string::npos) << err;
}

TEST(DispatchDiagnostics, UsableNameSelectsSilently) {
  testing::internal::CaptureStderr();
  EXPECT_STREQ(kernels::select_kernels("scalar").name, "scalar");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(DispatchDiagnostics, KnownUnusableNameNamesPreciseReason) {
  // A known-but-unusable tier falls back for one of two reasons, and the
  // warning must say which: "not compiled into this binary" (the build
  // gate dropped the TU) vs "CPU lacks the required instruction-set
  // features" (built, but cpuid says no).  On hosts where every tier is
  // usable neither branch is reachable — skip rather than pass vacuously.
  bool exercised = false;
  for (const char* name : {"avx2", "avx512"}) {
    ASSERT_TRUE(kernels::is_known_kernel_name(name));
    const kernels::KernelTable* t = kernels::by_name(name);
    const bool supported = std::string_view(name) == "avx2"
                               ? kernels::cpu_supports_avx2()
                               : kernels::cpu_supports_avx512();
    if (t != nullptr && supported) continue;
    testing::internal::CaptureStderr();
    (void)kernels::select_kernels(name);
    const std::string err = testing::internal::GetCapturedStderr();
    const char* expect =
        t == nullptr ? "not compiled into this binary"
                     : "CPU lacks the required instruction-set features";
    EXPECT_NE(err.find(expect), std::string::npos) << name << ": " << err;
    exercised = true;
  }
  if (!exercised) GTEST_SKIP() << "every SIMD tier is usable on this host";
}

// --- LP_APPROX parsing ------------------------------------------------------

TEST(ApproxModeParsing, RecognizedNames) {
  using kernels::ApproxMode;
  EXPECT_EQ(kernels::approx_mode_from_name(nullptr), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name(""), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("off"), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("exact"), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("plam"), ApproxMode::kPlam);
}

TEST(ApproxModeParsing, UnknownNameWarnsAndStaysExact) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(kernels::approx_mode_from_name("mitchell3"),
            kernels::ApproxMode::kExact);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("LP_APPROX=mitchell3"), std::string::npos) << err;
}

// --- GEMM ------------------------------------------------------------------

class GemmBitEquality : public KernelTablesTest {
 protected:
  /// Run both layouts of one shape under `table` and the scalar reference,
  /// with bias present and absent, and require bitwise-equal outputs.
  void check_shape(const kernels::KernelTable& table, const GemmShape& s,
                   bool inject_inf) {
    const auto mm = static_cast<std::size_t>(s.m);
    std::vector<float> a(mm * static_cast<std::size_t>(s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k) *
                         static_cast<std::size_t>(s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.n));
    fill_adversarial(a.data(), s.m * s.k, 11);
    fill_adversarial(b.data(), s.k * s.n, 23);
    fill_adversarial(bias.data(), s.n, 31);
    if (inject_inf && s.k >= 2) {
      // Infinities in B at k-position 0; every row of A gets a structural
      // zero there, so the scalar zero-skip keeps the products out of the
      // accumulator.  A kernel that multiplies instead of skipping turns
      // these into NaN and fails the bitwise compare.
      for (std::int64_t j = 0; j < s.n; j += 2) {
        b[static_cast<std::size_t>(j)] = (j % 4 == 0) ? kInf : -kInf;
      }
      for (std::int64_t i = 0; i < s.m; ++i) {
        a[static_cast<std::size_t>(i * s.k)] = 0.0F;
      }
      // Per-row zero masks: B's last k row is all +-inf, and only rows
      // i % 3 == 1 of A are zero there — a strict subset of every sliver,
      // so a kernel that treats a partial zero mask as all-clear turns
      // those rows into NaN.
      if (s.k >= 3) {
        const std::int64_t p = s.k - 1;
        for (std::int64_t j = 0; j < s.n; ++j) {
          b[static_cast<std::size_t>(p * s.n + j)] =
              (j % 2 == 0) ? kInf : -kInf;
        }
        for (std::int64_t i = 0; i < s.m; ++i) {
          float& v = a[static_cast<std::size_t>(i * s.k + p)];
          if (i % 3 == 1) {
            v = 0.0F;
          } else if (v == 0.0F) {
            v = 1.0F;
          }
        }
      }
    }
    std::vector<float> bt(b.size());  // B^T, [n, k] row-major
    for (std::int64_t p = 0; p < s.k; ++p) {
      for (std::int64_t j = 0; j < s.n; ++j) {
        bt[static_cast<std::size_t>(j * s.k + p)] =
            b[static_cast<std::size_t>(p * s.n + j)];
      }
    }
    const std::vector<std::uint8_t> a_codes = identity_codes(a.size());
    const std::vector<std::uint8_t> bt_codes = identity_codes(bt.size());
    const std::size_t cn = mm * static_cast<std::size_t>(s.n);
    std::vector<float> c_ref(cn), c_tab(cn);
    for (const float* bp : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      kernels::scalar_kernels().gemm_rows(a.data(), b.data(), bp, c_ref.data(),
                                          0, s.m, s.k, s.n);
      table.gemm_rows(a.data(), b.data(), bp, c_tab.data(), 0, s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(c_ref.data(), c_tab.data(), s.m * s.n))
          << table.name << " gemm_rows " << s.m << "x" << s.k << "x" << s.n
          << (bp != nullptr ? " +bias" : "") << (inject_inf ? " +inf" : "");

      // gemm_nt_rows: the scalar entry over float views is the oracle of
      // every operand form — float, or 16-bit codes whose LUT holds the
      // same adversarial values — with and without the fused encode.
      ASSERT_TRUE(kernels::scalar_kernels().gemm_nt_rows(
          kernels::float_view(a.data()), kernels::float_view(bt.data()), bp,
          c_ref.data(), nullptr, 0, s.m, s.k, s.n));
      const auto [want_codes, want_ok] = expected_codes(qi_.view(), c_ref);
      for (const kernels::PackedCodesView& av :
           {kernels::float_view(a.data()), coded16(a_codes, a)}) {
        for (const kernels::PackedCodesView& bv :
             {kernels::float_view(bt.data()), coded16(bt_codes, bt)}) {
          const std::string tag =
              std::string(table.name) + " gemm_nt_rows " +
              std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
              std::to_string(s.n) + (av.lut != nullptr ? " codedA" : "") +
              (bv.lut != nullptr ? " codedB" : "") +
              (bp != nullptr ? " +bias" : "") + (inject_inf ? " +inf" : "");
          ASSERT_TRUE(table.gemm_nt_rows(av, bv, bp, c_tab.data(), nullptr, 0,
                                         s.m, s.k, s.n));
          EXPECT_TRUE(bitwise_equal(c_ref.data(), c_tab.data(), s.m * s.n))
              << tag;
          std::vector<std::uint8_t> codes(cn, kUnwritten);
          const kernels::ActEncode ep{qi_.view(), codes.data(), 8,
                                      kernels::kActNone};
          EXPECT_EQ(table.gemm_nt_rows(av, bv, bp, nullptr, &ep, 0, s.m, s.k,
                                       s.n),
                    want_ok)
              << tag << " +encode";
          EXPECT_EQ(codes, want_codes) << tag << " +encode";
        }
      }
    }
  }

  /// Encode table of the fused-epilogue form: coarse and fine values
  /// across the adversarial magnitudes.
  const QuantIndex qi_{std::vector<double>{-1e30, -1.0, -1e-30, 0.0, 1e-30,
                                           1.0, 1e30}};
};

TEST_F(GemmBitEquality, AllTablesAllShapes) {
  for (const auto* t : tables_) {
    for (const GemmShape& s : kShapes) {
      check_shape(*t, s, false);
      check_shape(*t, s, true);
    }
  }
}

/// Quiet float NaN carrying `payload` in its low mantissa bits.
float nan_payload(std::uint32_t payload) {
  return std::bit_cast<float>(0x7FC00000U | payload);
}

/// The [k, n] row-major float matrix `b` as the input of a 1x1 conv over
/// [1, k, 1, n], so the conv tile computes decode(A) * B.
kernels::ConvPatchView matrix_as_conv_input(const float* b, std::int64_t k,
                                            std::int64_t n) {
  kernels::ConvPatchView x;
  x.data = reinterpret_cast<const std::uint8_t*>(b);
  x.bits = 32;
  x.batch = 1;
  x.c_total = k;
  x.h = 1;
  x.w = n;
  x.c_count = k;
  x.ho = 1;
  x.wo = n;
  return x;
}

/// Element-wise: equal bits, or both NaN (payload not compared).
bool same_values(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    const bool both_nan = std::isnan(a[e]) && std::isnan(b[e]);
    if (!both_nan && std::bit_cast<std::uint32_t>(a[e]) !=
                         std::bit_cast<std::uint32_t>(b[e])) {
      return false;
    }
  }
  return true;
}

TEST_F(GemmBitEquality, SpecialOperandsMatchMulThenAdd) {
  // The SIMD tables accumulate with one FMA per step; the scalar table
  // multiplies, then adds.  Products of two widened floats are exact in
  // double, so the two agree — these operands are where they would
  // part if the product were rounded or a NaN were made or lost
  // differently: NaNs with distinct payloads meeting at one k, an
  // accumulator already NaN meeting a NaN product, inf x finite and
  // inf x 0, huge x huge, denormal x denormal, signed-zero products, and
  // -0.0f bias seeds.  Every non-NaN output must match bit for bit and
  // every NaN output must be NaN on both sides; which input NaN's
  // payload survives is left open (IEEE 754 does not fix it, and the
  // compiler orders the operands of the reference's own multiply and
  // add differently across its unrolled lanes).
  // B rows 0..4 hold the special values; each A row picks some of them.
  constexpr std::int64_t m = 10;
  constexpr std::int64_t k = 12;
  constexpr std::int64_t n = 37;  // full 16/8-lane panels plus a tail
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0F);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  Rng rng(97);
  for (auto& v : b) v = static_cast<float>(rng.gaussian());
  for (std::int64_t j = 0; j < n; ++j) {
    const auto at = [&](std::int64_t p) -> float& {
      return b[static_cast<std::size_t>(p * n + j)];
    };
    at(0) = j % 2 == 0 ? nan_payload(0x101) : 2.0F;
    at(1) = j % 3 == 0 ? nan_payload(0x102) : j % 3 == 1 ? kInf : -kInf;
    at(2) = j % 2 == 0 ? kHuge : -kHuge;
    at(3) = j % 2 == 0 ? kDenorm : -kDenorm;
    at(4) = j % 2 == 0 ? 0.0F : -0.0F;
  }
  const auto set_a = [&](std::int64_t i, std::int64_t p, float v) {
    a[static_cast<std::size_t>(i * k + p)] = v;
  };
  const auto fill_tail = [&](std::int64_t i) {
    for (std::int64_t p = 5; p < k; ++p) {
      set_a(i, p, static_cast<float>(rng.gaussian()));
    }
  };
  set_a(0, 0, nan_payload(0x201));  // NaN x NaN at one k, NaN x 2
  set_a(1, 0, 1.5F);                // acc NaN at k 0 ...
  set_a(1, 1, nan_payload(0x202));  // ... meets NaN x NaN / NaN x inf
  set_a(2, 1, 3.0F);                // x NaN, x inf, x -inf
  set_a(2, 2, kHuge);
  set_a(2, 3, kDenorm);
  set_a(3, 2, kHuge);               // huge x huge
  fill_tail(3);
  set_a(4, 3, kDenorm);             // denormal x denormal, then +-0
  set_a(4, 4, -1.0F);
  set_a(5, 4, -2.0F);               // only signed-zero products
  set_a(6, 1, nan_payload(0x203));
  fill_tail(6);
  set_a(7, 0, nan_payload(0x204));  // NaN acc meets a second NaN product
  set_a(7, 1, nan_payload(0x205));
  set_a(8, 4, kInf);                // inf x 0 -> invalid
  fill_tail(8);
  set_a(9, 2, -kHuge);
  set_a(9, 3, kDenorm);
  fill_tail(9);

  std::vector<float> bt(b.size());  // B^T, [n, k] row-major
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      bt[static_cast<std::size_t>(j * k + p)] =
          b[static_cast<std::size_t>(p * n + j)];
    }
  }
  const std::vector<std::uint8_t> a_codes = identity_codes(a.size());
  const std::vector<std::uint8_t> bt_codes = identity_codes(bt.size());
  const std::vector<float> col_bias(static_cast<std::size_t>(n), -0.0F);
  const std::vector<float> row_bias(static_cast<std::size_t>(m), -0.0F);
  const std::size_t cn = static_cast<std::size_t>(m * n);
  std::vector<float> c_ref(cn), c_tab(cn);
  const kernels::KernelTable& ref = kernels::scalar_kernels();
  for (const auto* t : tables_) {
    for (const bool with_bias : {false, true}) {
      const float* cb = with_bias ? col_bias.data() : nullptr;
      const std::string tag =
          std::string(t->name) + (with_bias ? " -0 bias" : "");
      ref.gemm_rows(a.data(), b.data(), cb, c_ref.data(), 0, m, k, n);
      t->gemm_rows(a.data(), b.data(), cb, c_tab.data(), 0, m, k, n);
      EXPECT_TRUE(same_values(c_ref, c_tab))
          << tag << " gemm_rows";

      ASSERT_TRUE(ref.gemm_nt_rows(kernels::float_view(a.data()),
                                   kernels::float_view(bt.data()), cb,
                                   c_ref.data(), nullptr, 0, m, k, n));
      for (const kernels::PackedCodesView& av :
           {kernels::float_view(a.data()), coded16(a_codes, a)}) {
        for (const kernels::PackedCodesView& bv :
             {kernels::float_view(bt.data()), coded16(bt_codes, bt)}) {
          ASSERT_TRUE(t->gemm_nt_rows(av, bv, cb, c_tab.data(), nullptr, 0,
                                      m, k, n));
          EXPECT_TRUE(same_values(c_ref, c_tab))
              << tag << " gemm_nt_rows" << (av.lut != nullptr ? " codedA" : "")
              << (bv.lut != nullptr ? " codedB" : "");
        }
      }

      kernels::ConvTileSink sink;
      sink.bias = with_bias ? row_bias.data() : nullptr;
      sink.cout = m;
      sink.out = c_ref.data();
      const kernels::ConvPatchView x = matrix_as_conv_input(b.data(), k, n);
      ASSERT_TRUE(ref.conv_codes_tile(coded16(a_codes, a), x, sink, 0, m, 0,
                                      n));
      sink.out = c_tab.data();
      ASSERT_TRUE(t->conv_codes_tile(coded16(a_codes, a), x, sink, 0, m, 0,
                                     n));
      EXPECT_TRUE(same_values(c_ref, c_tab))
          << tag << " conv_codes_tile";
    }
  }
}

TEST_F(GemmBitEquality, SplitRowRangesMatchFullRange) {
  // Kernels are handed arbitrary row blocks by the thread pool; uneven
  // splits must still produce the full-range result bit-for-bit.
  const GemmShape s{9, 33, 17};
  std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  fill_adversarial(a.data(), s.m * s.k, 5);
  fill_adversarial(b.data(), s.k * s.n, 9);
  std::vector<float> c_full(static_cast<std::size_t>(s.m * s.n));
  std::vector<float> c_split(c_full.size());
  for (const auto* t : tables_) {
    t->gemm_rows(a.data(), b.data(), nullptr, c_full.data(), 0, s.m, s.k, s.n);
    const std::int64_t cuts[] = {0, 1, 2, 5, 6, s.m};
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      t->gemm_rows(a.data(), b.data(), nullptr, c_split.data(), cuts[ci],
                   cuts[ci + 1], s.k, s.n);
    }
    EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
        << t->name;
  }
}

TEST_F(GemmBitEquality, OpsLayerUsesDispatchedKernel) {
  // Whatever dispatch() picked, matmul/matmul_nt must equal the scalar
  // kernel applied by hand — pins the rewiring of src/tensor/ops.cpp.
  const GemmShape s{6, 40, 21};
  Tensor a({s.m, s.k});
  Tensor b({s.k, s.n});
  fill_adversarial(a.raw(), s.m * s.k, 41);
  fill_adversarial(b.raw(), s.k * s.n, 43);
  const Tensor c = matmul(a, b);
  std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n));
  kernels::scalar_kernels().gemm_rows(a.raw(), b.raw(), nullptr, c_ref.data(),
                                      0, s.m, s.k, s.n);
  EXPECT_TRUE(bitwise_equal(c.raw(), c_ref.data(), s.m * s.n));
}

// --- quantization ----------------------------------------------------------

class QuantizeBitEquality : public KernelTablesTest {
 protected:
  /// Buffer mixing random magnitudes, exact table values, tie midpoints
  /// and their float neighbours, denormals, ±inf, and NaN.
  static std::vector<float> adversarial_floats(const std::vector<double>& vals,
                                               std::size_t n,
                                               std::uint64_t seed) {
    std::vector<float> xs(n);
    fill_adversarial(xs.data(), static_cast<std::int64_t>(n), seed);
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 9) {
        case 2: {  // exact table value
          const auto vi = static_cast<std::size_t>(rng.uniform(
              0.0, static_cast<double>(vals.size()) - 0.5));
          xs[i] = static_cast<float>(vals[vi]);
          break;
        }
        case 4: {  // tie midpoint and neighbours
          const auto vi = static_cast<std::size_t>(rng.uniform(
              0.0, static_cast<double>(vals.size()) - 1.5));
          const auto mid =
              static_cast<float>(0.5 * (vals[vi] + vals[vi + 1]));
          const float eps = (i % 2 == 0) ? 1.0F : -1.0F;
          xs[i] = std::nextafter(mid, eps * kInf);
          if (i % 18 == 4) xs[i] = mid;
          break;
        }
        case 6:
          xs[i] = (i % 12 == 6) ? kInf : -kInf;
          break;
        case 8:
          xs[i] = kNan;
          break;
        default:
          break;
      }
    }
    return xs;
  }

  void check_format(const std::vector<double>& vals, bool with_nonfinite) {
    const QuantIndex qi(vals);
    const kernels::QuantIndexView view = qi.view();
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{31}, std::size_t{257},
                                std::size_t{1000}}) {
      std::vector<float> base = adversarial_floats(vals, n, 77 + n);
      if (!with_nonfinite) {
        for (float& x : base) {
          if (!std::isfinite(x)) x = 0.125F;
        }
      }
      expect_tables_match(view, base, vals.size());
    }
  }

  /// Every table's quantize_chunk (values and error bits) and
  /// nearest_indices over `base` equal the scalar reference's.
  void expect_tables_match(const kernels::QuantIndexView& view,
                           const std::vector<float>& base,
                           std::size_t table_size) {
    const std::size_t n = base.size();
    std::vector<float> ref = base;
    const double se_ref =
        kernels::scalar_kernels().quantize_chunk(view, ref.data(), n);
    std::vector<std::uint32_t> idx_ref(n);
    kernels::scalar_kernels().nearest_indices(view, base.data(),
                                              idx_ref.data(), n);
    for (const auto* t : tables_) {
      std::vector<float> got = base;
      const double se = t->quantize_chunk(view, got.data(), n);
      EXPECT_TRUE(bitwise_equal(ref.data(), got.data(),
                                static_cast<std::int64_t>(n)))
          << t->name << " n=" << n << " table=" << table_size;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(se_ref),
                std::bit_cast<std::uint64_t>(se))
          << t->name << " n=" << n << " table=" << table_size;
      std::vector<std::uint32_t> idx(n);
      t->nearest_indices(view, base.data(), idx.data(), n);
      EXPECT_EQ(idx_ref, idx) << t->name << " n=" << n;
    }
  }

  /// The floats on both sides of, and at, every decision boundary of the
  /// table (keys - 1, keys, keys + 1), trimmed to a length that is not a
  /// multiple of 8, so each vector tier also runs its masked tail.
  void check_boundaries(const std::vector<double>& vals) {
    const QuantIndex qi(vals);
    const kernels::QuantIndexView view = qi.view();
    std::vector<float> xs;
    for (std::size_t t = 0; t < view.num_keys; ++t) {
      for (const std::uint32_t d : {0xFFFFFFFFU, 0U, 1U}) {
        xs.push_back(quant::float_from_key(view.keys[t] + d));
      }
    }
    if (xs.size() % 8 == 0) xs.pop_back();
    expect_tables_match(view, xs, vals.size());
  }
};

TEST_F(QuantizeBitEquality, NarrowLPFormat) {
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  check_format(fmt.all_values(), true);
}

TEST_F(QuantizeBitEquality, TypicalLPFormat) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  check_format(fmt.all_values(), true);
  check_format(fmt.all_values(), false);
}

TEST_F(QuantizeBitEquality, WideFormatDenseBuckets) {
  // 12-bit table: buckets exceed the scalar path's linear-scan span, so
  // this exercises the upper_bound branch and the SIMD 8-wide count loop.
  const CodeTable table(LPConfig{12, 2, 5, 0.5});
  check_format(table.values(), true);
}

TEST_F(QuantizeBitEquality, BoundaryNeighboursEveryKey) {
  // The SIMD searches halve each lane's bucket with one key gather per
  // step; an off-by-one at a probe or at the bucket's ends shows here as
  // a boundary neighbour on the wrong side.  4-, 8- and 12-bit tables:
  // one-step buckets, then dense ones.
  check_boundaries(LPFormat(LPConfig{4, 1, 2, 2.0}).all_values());
  check_boundaries(LPFormat(LPConfig{8, 1, 4, 3.0}).all_values());
  check_boundaries(CodeTable(LPConfig{12, 2, 5, 0.5}).values());
}

TEST_F(QuantizeBitEquality, SaturatedBucket) {
  // 40 values inside [1, 1.125) share one bucket (the top 12 key bits),
  // so lanes there search 39 keys over six steps while lanes near -1 and
  // 4 leave after one — in the same vectors.
  std::vector<double> vals = {-1.0};
  for (int i = 0; i < 40; ++i) vals.push_back(1.0 + i / 512.0);
  vals.push_back(4.0);
  check_boundaries(vals);
  check_format(vals, true);
}

TEST_F(QuantizeBitEquality, NonFiniteOnlyBuffer) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  const QuantIndex qi(fmt.all_values());
  const kernels::QuantIndexView view = qi.view();
  std::vector<float> base = {kInf, -kInf, kNan, kInf, kNan, -kInf, kNan};
  std::vector<float> ref = base;
  const double se_ref = kernels::scalar_kernels().quantize_chunk(
      view, ref.data(), ref.size());
  EXPECT_TRUE(std::isnan(se_ref));
  for (const auto* t : tables_) {
    std::vector<float> got = base;
    const double se = t->quantize_chunk(view, got.data(), got.size());
    EXPECT_TRUE(bitwise_equal(ref.data(), got.data(),
                              static_cast<std::int64_t>(got.size())))
        << t->name;
    EXPECT_TRUE(std::isnan(se)) << t->name;
  }
}

TEST_F(QuantizeBitEquality, DenormalBoundariesExact) {
  // A table whose decision boundaries sit in the subnormal range: the key
  // math must be exact down there too.
  const std::vector<double> vals = {-1e-39, -2e-42, 0.0, 3e-42, 5e-40, 1e-38};
  check_format(vals, true);
}

// --- PLAM approximate multiply (LP_APPROX=plam) -----------------------------

TEST(PlamMultiply, SpecialValuesAreExact) {
  using kernels::plam::mitchell_mul;
  EXPECT_EQ(mitchell_mul(0.0, 3.5), 0.0);
  EXPECT_EQ(mitchell_mul(-2.0, 0.0), 0.0);
  EXPECT_TRUE(std::isnan(mitchell_mul(static_cast<double>(kNan), 1.0)));
  EXPECT_EQ(mitchell_mul(static_cast<double>(kInf), 2.0),
            static_cast<double>(kInf));
  EXPECT_EQ(mitchell_mul(static_cast<double>(-kInf), 2.0),
            static_cast<double>(-kInf));
  // Powers of two carry zero log-fraction, so the approximation is exact.
  EXPECT_EQ(mitchell_mul(4.0, 8.0), 32.0);
  EXPECT_EQ(mitchell_mul(-0.5, 0.25), -0.125);
  EXPECT_EQ(mitchell_mul(-0.5, -0.25), 0.125);
}

TEST(PlamMultiply, UnderestimatesWithinPinnedBound) {
  using kernels::plam::mitchell_mul;
  // The canonical worst case: both mantissas 1.5 (log fractions 0.5),
  // where 2^(e+f) loses exactly 1/9 of the product.
  EXPECT_NEAR((2.25 - mitchell_mul(1.5, 1.5)) / 2.25, 1.0 / 9.0, 1e-12);

  Rng rng(2024);
  double max_rel = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.gaussian() * std::pow(10.0, rng.uniform(-30.0, 30.0));
    const double y = rng.gaussian() * std::pow(10.0, rng.uniform(-30.0, 30.0));
    if (x == 0.0 || y == 0.0) continue;
    const double exact = x * y;
    const double got = mitchell_mul(x, y);
    ASSERT_EQ(std::signbit(got), std::signbit(exact)) << x << " * " << y;
    // Mitchell is a monotone underestimate of the magnitude...
    ASSERT_LE(std::fabs(got), std::fabs(exact)) << x << " * " << y;
    // ...by at most the pinned per-multiply bound.
    const double rel = (std::fabs(exact) - std::fabs(got)) / std::fabs(exact);
    ASSERT_LE(rel, kernels::kPlamMaxRelError) << x << " * " << y;
    max_rel = std::max(max_rel, rel);
  }
  // The sweep must actually visit the high-error region, or the bound
  // check above is vacuous.
  EXPECT_GT(max_rel, 0.09);
}

namespace plam_gemm {

/// Pack dense 8-bit indices into a byte stream (one code per byte).
kernels::PackedCodesView view_of(const std::vector<std::uint8_t>& stream,
                                 const std::vector<float>& lut) {
  return kernels::PackedCodesView{stream.data(), 0, 8, lut.data(),
                                  static_cast<std::uint32_t>(lut.size())};
}

}  // namespace plam_gemm

TEST(PlamGemm, DotProductErrorWithinLinearBound) {
  // Accumulation is exact (double, ascending k) and only the multiplies
  // approximate, so a dot product's absolute error is bounded by
  // kPlamMaxRelError * sum_k |a_k * b_k| — the linear composition the
  // header pins.  Benign finite magnitudes: the approximate path is for
  // DNN data, not the ±inf adversarial corpus.
  std::vector<float> lut(64);
  Rng lrng(7);
  lut[0] = 0.0F;
  for (std::size_t i = 1; i < lut.size(); ++i) {
    lut[i] = static_cast<float>(lrng.gaussian() *
                                std::pow(10.0, lrng.uniform(-3.0, 3.0)));
  }
  const GemmShape shapes[] = {{1, 1, 1}, {3, 7, 5}, {5, 33, 17}, {8, 64, 9}};
  int diffs = 0;
  for (const GemmShape& s : shapes) {
    Rng rng(100 + static_cast<std::uint64_t>(s.k));
    std::vector<std::uint8_t> stream(static_cast<std::size_t>(s.n * s.k));
    for (auto& c : stream) {
      c = static_cast<std::uint8_t>(rng.uniform(0.0, 63.4));
    }
    const kernels::PackedCodesView view = plam_gemm::view_of(stream, lut);
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> bias(static_cast<std::size_t>(s.n));
    for (auto& v : a) v = static_cast<float>(rng.gaussian());
    for (auto& v : bias) v = static_cast<float>(rng.gaussian());
    for (std::int64_t i = 0; i < s.m * s.k; i += 5) {
      a[static_cast<std::size_t>(i)] = 0.0F;  // zero-skip stays exact
    }
    const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
    std::vector<float> c_ref(cn), c_plam(cn);
    for (const float* bp : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      ASSERT_TRUE(kernels::scalar_kernels().gemm_nt_rows(
          kernels::float_view(a.data()), view, bp, c_ref.data(), nullptr, 0,
          s.m, s.k, s.n));
      ASSERT_TRUE(kernels::plam::gemm_nt_rows(kernels::float_view(a.data()),
                                              view, bp, c_plam.data(), nullptr,
                                              0, s.m, s.k, s.n));
      for (std::int64_t i = 0; i < s.m; ++i) {
        for (std::int64_t j = 0; j < s.n; ++j) {
          double sumabs = 0.0;
          for (std::int64_t p = 0; p < s.k; ++p) {
            const double av = a[static_cast<std::size_t>(i * s.k + p)];
            const double bv = lut[stream[static_cast<std::size_t>(j * s.k + p)]];
            sumabs += std::fabs(av * bv);
          }
          const auto e = static_cast<std::size_t>(i * s.n + j);
          const double diff = std::fabs(static_cast<double>(c_plam[e]) - c_ref[e]);
          EXPECT_LE(diff, kernels::kPlamMaxRelError * sumabs +
                              1e-5 * std::fabs(c_ref[e]) + 1e-30)
              << s.m << "x" << s.k << "x" << s.n << " @" << i << "," << j;
          if (c_plam[e] != c_ref[e]) ++diffs;
        }
      }
    }
  }
  // The approximation must actually engage, or the bound is vacuous.
  EXPECT_GT(diffs, 0);
}

TEST(PlamGemm, CodedAOperandMatchesDecodedAOperand) {
  // The plam kernel decodes a coded A exactly and multiplies the same
  // way, so a coded A must be bit-identical to the decoded float A — and
  // the fused encode must emit the codes of that float result.
  std::vector<float> lut(32);
  Rng lrng(11);
  lut[0] = 0.0F;
  for (std::size_t i = 1; i < lut.size(); ++i) {
    lut[i] = static_cast<float>(lrng.gaussian());
  }
  const GemmShape s{6, 21, 13};
  Rng rng(13);
  std::vector<std::uint8_t> a_stream(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::uint8_t> b_stream(static_cast<std::size_t>(s.n * s.k));
  for (auto& c : a_stream) c = static_cast<std::uint8_t>(rng.uniform(0.0, 31.4));
  for (auto& c : b_stream) c = static_cast<std::uint8_t>(rng.uniform(0.0, 31.4));
  const kernels::PackedCodesView av = plam_gemm::view_of(a_stream, lut);
  const kernels::PackedCodesView bv = plam_gemm::view_of(b_stream, lut);
  std::vector<float> a_dec(a_stream.size());
  for (std::size_t i = 0; i < a_stream.size(); ++i) a_dec[i] = lut[a_stream[i]];

  const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
  std::vector<float> c_float_a(cn), c_coded_a(cn);
  ASSERT_TRUE(kernels::plam::gemm_nt_rows(kernels::float_view(a_dec.data()),
                                          bv, nullptr, c_float_a.data(),
                                          nullptr, 0, s.m, s.k, s.n));
  ASSERT_TRUE(kernels::plam::gemm_nt_rows(av, bv, nullptr, c_coded_a.data(),
                                          nullptr, 0, s.m, s.k, s.n));
  EXPECT_TRUE(bitwise_equal(c_float_a.data(), c_coded_a.data(), s.m * s.n));

  std::vector<double> vals(lut.begin(), lut.end());
  std::sort(vals.begin(), vals.end());
  const QuantIndex qi(vals);
  const auto [want_codes, want_ok] = expected_codes(qi.view(), c_float_a);
  ASSERT_TRUE(want_ok);
  for (const kernels::PackedCodesView& a_form :
       {kernels::float_view(a_dec.data()), av}) {
    std::vector<std::uint8_t> codes(cn, kUnwritten);
    const kernels::ActEncode ep{qi.view(), codes.data(), 8, kernels::kActNone};
    EXPECT_TRUE(kernels::plam::gemm_nt_rows(a_form, bv, nullptr, nullptr, &ep,
                                            0, s.m, s.k, s.n));
    EXPECT_EQ(codes, want_codes) << (a_form.lut != nullptr ? "coded A" : "float A");
  }
}

TEST(PlamGemm, CrossValidatesAgainstLpaDatapathSim) {
  // The plam kernel and the src/lpa systolic datapath are two independent
  // models of log-domain approximate multiplication over the *same*
  // quantized operands (LPFormat delegates to the CodeTable lpa encodes
  // through).  Exact kernel == double-GEMM reference bit-for-bit; each
  // approximation stays inside its own bound of that reference; and the
  // two approximations therefore bracket each other within the combined
  // bound — the cross-validation ISSUE.md asks for.
  const LPConfig wcfg{8, 2, 4, 0.5};
  const LPConfig acfg{8, 2, 4, 0.0};
  const std::int64_t m = 6, k = 19, n = 7;
  Tensor w({m, k});
  Tensor x({k, n});
  Rng rng(77);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());

  const Tensor ref = lpa::lpa_gemm_reference(w, x, wcfg, acfg);
  const Tensor dp = lpa::lpa_gemm(w, x, wcfg, acfg);

  const LPFormat wf(wcfg);
  const LPFormat af(acfg);
  Tensor wq = w;
  quantize_inplace(wq, wf);
  Tensor xt({n, k});  // x^T: the coded-B^T layout matmul_nt_codes takes
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) xt.at2(j, p) = x.at2(p, j);
  }
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  auto codes = PackedCodes::pack(xt.data(), xt.shape(), af, lut, 8);
  ASSERT_TRUE(codes.has_value());
  Tensor xtq(xt.shape());
  codes->decode(xtq.data());

  const Tensor exact = matmul_nt_codes(wq, *codes, nullptr);
  const Tensor plam =
      matmul_nt_codes(wq, *codes, nullptr, kernels::ApproxMode::kPlam);

  // Same quantized operands, same double ascending-k accumulation: the
  // exact coded kernel must reproduce the lpa reference bit-for-bit.
  ASSERT_TRUE(bitwise_equal(exact.raw(), ref.raw(), m * n));

  // The lpa PE's 8-bit log<->linear converters bound each product's
  // relative error far tighter than Mitchell; test_lpa pins ~2% at the
  // accumulator, which we reuse here.
  constexpr double kDatapathRel = 0.02;
  int plam_diffs = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double sumabs = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        sumabs += std::fabs(static_cast<double>(wq.at2(i, p)) * xtq.at2(j, p));
      }
      const double r = ref.at2(i, j);
      EXPECT_LE(std::fabs(plam.at2(i, j) - r),
                kernels::kPlamMaxRelError * sumabs + 1e-6)
          << i << "," << j;
      EXPECT_LE(std::fabs(dp.at2(i, j) - r), kDatapathRel * sumabs + 1e-6)
          << i << "," << j;
      EXPECT_LE(std::fabs(plam.at2(i, j) - dp.at2(i, j)),
                (kernels::kPlamMaxRelError + kDatapathRel) * sumabs + 1e-6)
          << i << "," << j;
      if (plam.at2(i, j) != r) ++plam_diffs;
    }
  }
  EXPECT_GT(plam_diffs, 0);  // the approximate path really ran
}

}  // namespace
