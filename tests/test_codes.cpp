// Packed weight-code datapath tests.
//
// The central contract: LUT-decoding GEMM (the conv tile over a coded A
// operand, run as a 1x1 conv over a float input, and gemm_nt_rows with
// a coded B^T operand) is bit-identical to decode-then-GEMM for
// every kernel table, every code width (4-bit packed through 16-bit),
// and every shape — including decode tables with
// denormal and ±inf entries, structural zeros under infinities, unaligned
// element offsets (grouped-conv slices), and non-multiple-of-8 sizes.  On
// top of that: PackedCodes round-trips bit-exactly against quantize_batch
// (tie midpoints included), non-finite weights force the float fallback,
// and the ops/runtime layers stay bit-identical across LP_THREADS values.
// CI re-runs this binary under LP_KERNEL=scalar and =avx2.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "core/quant_index.h"
#include "kernels/kernels.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace lp;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = 1e-42F;  // subnormal
constexpr float kHuge = 3.0e38F;   // just below FLT_MAX

struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

std::vector<std::uint32_t> bits_of(std::span<const float> xs) {
  std::vector<std::uint32_t> out;
  out.reserve(xs.size());
  for (const float v : xs) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

/// Pack raw indices into a code stream of the given width, with
/// `elem_offset` junk elements prepended so views at unaligned (odd, for
/// 4-bit) offsets are exercised.
std::vector<std::uint8_t> pack_raw(const std::vector<std::uint32_t>& idx,
                                   int bits, std::int64_t elem_offset) {
  const std::size_t total = idx.size() + static_cast<std::size_t>(elem_offset);
  std::vector<std::uint8_t> data(
      bits == 4 ? (total + 1) / 2 : bits == 8 ? total : total * 2, 0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::size_t e = i + static_cast<std::size_t>(elem_offset);
    switch (bits) {
      case 4:
        data[e / 2] |= static_cast<std::uint8_t>((idx[i] & 0xFU)
                                                 << ((e % 2) * 4));
        break;
      case 8:
        data[e] = static_cast<std::uint8_t>(idx[i]);
        break;
      default:
        data[e * 2] = static_cast<std::uint8_t>(idx[i] & 0xFFU);
        data[e * 2 + 1] = static_cast<std::uint8_t>(idx[i] >> 8);
        break;
    }
  }
  return data;
}

/// Adversarial decode table of `size` entries for a given code width:
/// zero first (so code 0 is the structural zero), then denormals, ±huge,
/// optional ±inf, filled out with random magnitudes.
std::vector<float> adversarial_lut(std::size_t size, bool with_inf,
                                   std::uint64_t seed) {
  std::vector<float> lut(size);
  lut[0] = 0.0F;
  Rng rng(seed);
  for (std::size_t i = 1; i < size; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-42.0, 38.0));
    lut[i] = static_cast<float>(rng.gaussian() * mag);
  }
  if (size > 3) lut[1] = kDenorm;
  if (size > 4) lut[2] = -kDenorm;
  if (size > 6) lut[3] = kHuge;
  if (size > 7) lut[4] = -kHuge;
  if (with_inf && size > 9) {
    lut[5] = kInf;
    lut[6] = -kInf;
  }
  return lut;
}

struct GemmShape {
  std::int64_t m, k, n;
};

// Deliberately not multiples of the 8-wide vector step (and one 1x1x1);
// m > 8 gives the SIMD tiers a second (often partial) A sliver.
const GemmShape kShapes[] = {{1, 1, 1},   {2, 3, 5},    {3, 7, 9},
                             {5, 16, 8},  {4, 17, 33},  {7, 64, 31},
                             {8, 129, 40}, {9, 33, 17},  {13, 40, 35},
                             {17, 20, 48}, {24, 129, 16}};

constexpr std::uint8_t kUnwritten = 0xA5;

/// Encode table of the fused-epilogue forms: coarse and fine values
/// across the adversarial magnitudes.
const QuantIndex& encode_index() {
  static const QuantIndex qi(
      std::vector<double>{-1e30, -1.0, -1e-30, 0.0, 1e-30, 1.0, 1e30});
  return qi;
}

/// gemm_nt_rows with the fused encode epilogue (act none, 8-bit codes)
/// into a fresh kUnwritten-filled stream; `ok` gets the kernel's verdict.
std::vector<std::uint8_t> nt_encoded(const kernels::KernelTable& t,
                                     const kernels::PackedCodesView& a,
                                     const kernels::PackedCodesView& b,
                                     const float* bias, std::int64_t m,
                                     std::int64_t k, std::int64_t n,
                                     bool& ok) {
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(m * n), kUnwritten);
  const kernels::ActEncode ep{encode_index().view(), codes.data(), 8,
                              kernels::kActNone};
  ok = t.gemm_nt_rows(a, b, bias, nullptr, &ep, 0, m, k, n);
  return codes;
}

/// Oracle of nt_encoded: the codes the nearest-index search assigns to
/// the float result `c` (kUnwritten where it has none), and whether every
/// element was finite.
std::pair<std::vector<std::uint8_t>, bool> expected_codes(
    const std::vector<float>& c) {
  std::vector<std::uint32_t> idx(c.size());
  kernels::scalar_kernels().nearest_indices(encode_index().view(), c.data(),
                                            idx.data(), c.size());
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

/// The [k, n] row-major float matrix `b` as the input of a 1x1 conv over
/// [1, k, 1, n]: patch element (p, col) is b[p * n + col], so the conv
/// tile over an [m, k] coded weight computes decode(A) * B, and output
/// (row, col) lands at c[row * n + col].
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

/// Conv-tile GEMM: c[i, j] = float(decode(A)[i, :] * B[:, j]) + bias[i]
/// for rows [r0, r1) and columns [c0, c1) of an [m, n] result.
void tile_gemm(const kernels::KernelTable& t, const kernels::PackedCodesView& a,
               const float* b, const float* bias, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t r0, std::int64_t r1,
               std::int64_t c0, std::int64_t c1) {
  kernels::ConvTileSink sink;
  sink.bias = bias;
  sink.cout = m;
  sink.out = c;
  ASSERT_TRUE(t.conv_codes_tile(a, matrix_as_conv_input(b, k, n), sink, r0,
                                r1, c0, c1));
}

class CodesKernelTest : public ::testing::Test {
 protected:
  std::vector<const kernels::KernelTable*> tables_ =
      kernels::available_kernels();
};

TEST_F(CodesKernelTest, TablesCarryCodeKernels) {
  for (const auto* t : tables_) {
    EXPECT_NE(t->conv_codes_tile, nullptr) << t->name;
    EXPECT_NE(t->gemm_nt_rows, nullptr) << t->name;
  }
}

/// The conv tile (coded A, the conv layout) over a float 1x1-conv input
/// against decode-then-gemm_rows on the scalar reference, every table,
/// every code width, per-row bias on/off (the conv adds it to the
/// rounded product), unaligned offsets, and infs in float B guarded by
/// structural-zero codes in A — in every row at one k step, and in a
/// subset of each sliver's rows at another.
TEST_F(CodesKernelTest, CodedABitIdenticalToDecodeThenGemm) {
  for (const int bits : {4, 8, 16}) {
    const std::size_t lut_size = bits == 4 ? 16 : bits == 8 ? 200 : 1000;
    const std::vector<float> lut = adversarial_lut(lut_size, true, 17);
    for (const GemmShape& s : kShapes) {
      for (const std::int64_t offset : {std::int64_t{0}, std::int64_t{3}}) {
        const std::size_t an = static_cast<std::size_t>(s.m * s.k);
        Rng rng(91 + static_cast<std::uint64_t>(bits) + an);
        std::vector<std::uint32_t> idx(an);
        for (auto& v : idx) {
          v = static_cast<std::uint32_t>(
              rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
        }
        // Structural zeros: column 0 of A is the zero code, and B's first
        // k-row carries infinities — a kernel that multiplies instead of
        // skipping turns these into NaN.
        for (std::int64_t i = 0; i < s.m; ++i) {
          idx[static_cast<std::size_t>(i * s.k)] = 0;
        }
        // Per-row zero masks: at the last k step only rows i % 3 == 1 hold
        // the zero code, a strict subset of every sliver, and B's row
        // there is all +-inf — a kernel that treats a partial zero mask
        // as all-clear turns those rows into NaN.
        const std::int64_t p_inf = s.k - 1;
        if (s.k >= 3) {
          for (std::int64_t i = 0; i < s.m; ++i) {
            auto& v = idx[static_cast<std::size_t>(i * s.k + p_inf)];
            if (i % 3 == 1) {
              v = 0;
            } else if (v == 0) {
              v = 1;
            }
          }
        }
        const std::vector<std::uint8_t> stream = pack_raw(idx, bits, offset);
        const kernels::PackedCodesView view{
            stream.data(), offset, bits, lut.data(),
            static_cast<std::uint32_t>(lut_size)};

        std::vector<float> a_dec(an);
        for (std::size_t i = 0; i < an; ++i) a_dec[i] = lut[idx[i]];
        std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
        std::vector<float> bias(static_cast<std::size_t>(s.m));
        for (auto& v : b) v = static_cast<float>(rng.gaussian());
        for (auto& v : bias) v = static_cast<float>(rng.gaussian());
        if (s.k >= 2) {
          for (std::int64_t j = 0; j < s.n; j += 2) {
            b[static_cast<std::size_t>(j)] = (j % 4 == 0) ? kInf : -kInf;
          }
        }
        if (s.k >= 3) {
          for (std::int64_t j = 0; j < s.n; ++j) {
            b[static_cast<std::size_t>(p_inf * s.n + j)] =
                (j % 2 == 0) ? kInf : -kInf;
          }
        }

        const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
        std::vector<float> c_ref(cn);
        std::vector<float> c_got(cn);
        for (const float* bp : {static_cast<const float*>(nullptr),
                                static_cast<const float*>(bias.data())}) {
          kernels::scalar_kernels().gemm_rows(a_dec.data(), b.data(),
                                              nullptr, c_ref.data(), 0, s.m,
                                              s.k, s.n);
          for (std::size_t e = 0; bp != nullptr && e < cn; ++e) {
            c_ref[e] = c_ref[e] + bp[e / static_cast<std::size_t>(s.n)];
          }
          for (const auto* t : tables_) {
            tile_gemm(*t, view, b.data(), bp, c_got.data(), s.m, s.k, s.n, 0,
                      s.m, 0, s.n);
            EXPECT_TRUE(bitwise_equal(c_ref.data(), c_got.data(), s.m * s.n))
                << t->name << " bits=" << bits << " " << s.m << "x" << s.k
                << "x" << s.n << " offset=" << offset
                << (bp != nullptr ? " +bias" : "");
          }
        }
      }
    }
  }
}

/// gemm_nt_rows with a coded B^T (the linear layout) against
/// decode-then-gemm_nt_rows on the scalar reference over float views,
/// with ±inf decode-table entries guarded by structural zeros in A.  A
/// comes float, or coded in the same width and LUT; each form also runs
/// with the fused encode epilogue against the reference's codes.
TEST_F(CodesKernelTest, CodedBtBitIdenticalToDecodeThenGemm) {
  for (const int bits : {4, 8, 16}) {
    const std::size_t lut_size = bits == 4 ? 16 : bits == 8 ? 254 : 4000;
    const std::vector<float> lut = adversarial_lut(lut_size, true, 23);
    for (const GemmShape& s : kShapes) {
      const std::size_t an = static_cast<std::size_t>(s.m * s.k);
      const std::size_t bn = static_cast<std::size_t>(s.n * s.k);
      Rng rng(7 + static_cast<std::uint64_t>(bits) + bn);
      std::vector<std::uint32_t> idx(bn);
      for (auto& v : idx) {
        v = static_cast<std::uint32_t>(
            rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
      }
      const std::vector<std::uint8_t> stream = pack_raw(idx, bits, 0);
      const kernels::PackedCodesView view{
          stream.data(), 0, bits, lut.data(),
          static_cast<std::uint32_t>(lut_size)};

      std::vector<float> b_dec(bn);
      for (std::size_t i = 0; i < bn; ++i) b_dec[i] = lut[idx[i]];
      std::vector<float> a(an);
      std::vector<float> bias(static_cast<std::size_t>(s.n));
      for (auto& v : a) v = static_cast<float>(rng.gaussian());
      for (auto& v : bias) v = static_cast<float>(rng.gaussian());
      std::vector<std::uint32_t> a_idx(an);
      for (auto& v : a_idx) {
        v = static_cast<std::uint32_t>(
            rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
      }
      // A[i, 0] = 0 (the zero code when coded) shields whatever ±inf codes
      // landed in B's k-position 0 behind the zero-skip, exactly like the
      // float kernels' contract.
      for (std::int64_t i = 0; i < s.m; ++i) {
        a[static_cast<std::size_t>(i * s.k)] = 0.0F;
        a_idx[static_cast<std::size_t>(i * s.k)] = 0;
      }
      const std::vector<std::uint8_t> a_stream = pack_raw(a_idx, bits, 0);
      std::vector<float> a_dec(an);
      for (std::size_t i = 0; i < an; ++i) a_dec[i] = lut[a_idx[i]];
      const kernels::PackedCodesView a_view{
          a_stream.data(), 0, bits, lut.data(),
          static_cast<std::uint32_t>(lut_size)};

      const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
      std::vector<float> c_ref(cn);
      std::vector<float> c_got(cn);
      for (const bool coded_a : {false, true}) {
        const kernels::PackedCodesView av =
            coded_a ? a_view : kernels::float_view(a.data());
        const float* a_ref = coded_a ? a_dec.data() : a.data();
        for (const float* bp : {static_cast<const float*>(nullptr),
                                static_cast<const float*>(bias.data())}) {
          ASSERT_TRUE(kernels::scalar_kernels().gemm_nt_rows(
              kernels::float_view(a_ref), kernels::float_view(b_dec.data()),
              bp, c_ref.data(), nullptr, 0, s.m, s.k, s.n));
          const auto [want, want_ok] = expected_codes(c_ref);
          for (const auto* t : tables_) {
            const std::string tag =
                std::string(t->name) + " bits=" + std::to_string(bits) + " " +
                std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                std::to_string(s.n) + (coded_a ? " codedA" : "") +
                (bp != nullptr ? " +bias" : "");
            ASSERT_TRUE(t->gemm_nt_rows(av, view, bp, c_got.data(), nullptr,
                                        0, s.m, s.k, s.n));
            EXPECT_TRUE(bitwise_equal(c_ref.data(), c_got.data(), s.m * s.n))
                << tag;
            bool ok = false;
            EXPECT_EQ(nt_encoded(*t, av, view, bp, s.m, s.k, s.n, ok), want)
                << tag << " +encode";
            EXPECT_EQ(ok, want_ok) << tag << " +encode";
          }
        }
      }
    }
  }
}

TEST_F(CodesKernelTest, SplitRowRangesMatchFullRange) {
  const GemmShape s{9, 33, 17};
  const std::size_t lut_size = 16;
  const std::vector<float> lut = adversarial_lut(lut_size, false, 3);
  Rng rng(5);
  std::vector<std::uint32_t> a_idx(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::uint32_t> b_idx(static_cast<std::size_t>(s.n * s.k));
  for (auto& v : a_idx) v = static_cast<std::uint32_t>(rng.uniform(0.0, 15.4));
  for (auto& v : b_idx) v = static_cast<std::uint32_t>(rng.uniform(0.0, 15.4));
  const auto a_stream = pack_raw(a_idx, 4, 0);
  const auto b_stream = pack_raw(b_idx, 4, 0);
  const kernels::PackedCodesView av{a_stream.data(), 0, 4, lut.data(), 16};
  const kernels::PackedCodesView bv{b_stream.data(), 0, 4, lut.data(), 16};
  std::vector<float> x(static_cast<std::size_t>(s.m * s.k));
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  std::vector<float> b_float(static_cast<std::size_t>(s.k * s.n));
  for (auto& v : b_float) v = static_cast<float>(rng.gaussian());

  std::vector<float> c_full(static_cast<std::size_t>(s.m * s.n));
  std::vector<float> c_split(c_full.size());
  const std::int64_t cuts[] = {0, 1, 2, 5, 6, s.m};
  const std::int64_t col_cuts[] = {0, 3, 16, s.n};
  for (const auto* t : tables_) {
    tile_gemm(*t, av, b_float.data(), nullptr, c_full.data(), s.m, s.k, s.n, 0,
              s.m, 0, s.n);
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      for (std::size_t cj = 0; cj + 1 < std::size(col_cuts); ++cj) {
        tile_gemm(*t, av, b_float.data(), nullptr, c_split.data(), s.m, s.k,
                  s.n, cuts[ci], cuts[ci + 1], col_cuts[cj], col_cuts[cj + 1]);
      }
    }
    EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
        << t->name << " conv_codes_tile";

    for (const kernels::PackedCodesView& a_form :
         {kernels::float_view(x.data()), av}) {
      const std::string tag = std::string(t->name) + " gemm_nt_rows" +
                              (a_form.lut != nullptr ? " codedA" : "");
      ASSERT_TRUE(t->gemm_nt_rows(a_form, bv, nullptr, c_full.data(), nullptr,
                                  0, s.m, s.k, s.n));
      for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
        ASSERT_TRUE(t->gemm_nt_rows(a_form, bv, nullptr, c_split.data(),
                                    nullptr, cuts[ci], cuts[ci + 1], s.k,
                                    s.n));
      }
      EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
          << tag;

      bool full_ok = false;
      const std::vector<std::uint8_t> full =
          nt_encoded(*t, a_form, bv, nullptr, s.m, s.k, s.n, full_ok);
      std::vector<std::uint8_t> split(full.size(), kUnwritten);
      const kernels::ActEncode ep{encode_index().view(), split.data(), 8,
                                  kernels::kActNone};
      bool split_ok = true;
      for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
        split_ok = t->gemm_nt_rows(a_form, bv, nullptr, nullptr, &ep, cuts[ci],
                                   cuts[ci + 1], s.k, s.n) &&
                   split_ok;
      }
      EXPECT_EQ(full, split) << tag << " +encode";
      EXPECT_EQ(full_ok, split_ok) << tag << " +encode";
    }
  }
}

// --- PackedCodes round-trip ------------------------------------------------

/// Buffer with tie midpoints, exact table values, denormals and random
/// magnitudes — every decision the nearest-value rule makes must agree
/// between the code path (nearest_indices) and the float path
/// (quantize_batch), including the ties-toward-zero midpoint rule.
std::vector<float> tie_heavy_buffer(const std::vector<double>& vals,
                                    std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: {
        const auto vi = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(vals.size()) - 0.5));
        xs[i] = static_cast<float>(vals[vi]);
        break;
      }
      case 1: {
        const auto vi = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(vals.size()) - 1.5));
        xs[i] = static_cast<float>(0.5 * (vals[vi] + vals[vi + 1]));
        break;
      }
      case 2:
        xs[i] = static_cast<float>(rng.gaussian() * 1e-40);
        break;
      default:
        xs[i] = static_cast<float>(
            rng.gaussian() * std::pow(10.0, rng.uniform(-6.0, 6.0)));
        break;
    }
  }
  return xs;
}

TEST(PackedCodesRoundTrip, DecodeMatchesQuantizeBatchAllWidths) {
  // n = 2..8 pack (4- or 8-bit codes); n = 9..16 store unpacked 16-bit.
  struct Case {
    int n, es, rs;
    double sf;
    int want_bits;
  };
  const Case cases[] = {{2, 0, 1, 0.5, 4},  {3, 0, 2, 1.0, 4},
                        {4, 1, 2, 2.0, 4},  {6, 2, 3, 0.0, 8},
                        {8, 1, 4, 3.0, 8},  {9, 2, 4, 0.25, 16},
                        {12, 2, 5, 0.5, 16}, {16, 3, 7, 1.5, 16}};
  for (const Case& c : cases) {
    const LPFormat fmt(LPConfig{c.n, c.es, c.rs, c.sf});
    const auto lut = build_decode_table(fmt);
    ASSERT_NE(lut, nullptr) << "n=" << c.n;
    // 1001 elements: odd count exercises the 4-bit nibble tail.
    std::vector<float> data = tie_heavy_buffer(fmt.all_values(), 1001,
                                               40 + static_cast<std::uint64_t>(c.n));
    const auto packed = PackedCodes::pack(
        data, {static_cast<std::int64_t>(data.size())}, fmt, lut);
    ASSERT_TRUE(packed.has_value()) << "n=" << c.n;
    EXPECT_EQ(packed->code_bits(), c.want_bits) << "n=" << c.n;
    EXPECT_LE(packed->payload_bytes() * 8,
              static_cast<std::size_t>(c.want_bits) * data.size() + 8);

    std::vector<float> quantized = data;
    (void)fmt.quantize_batch(quantized);
    std::vector<float> decoded(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      decoded[i] = packed->decode_at(static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(bits_of(quantized), bits_of(decoded)) << "n=" << c.n;
  }
}

TEST(PackedCodesRoundTrip, NonFinitePackRejected) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  const auto lut = build_decode_table(fmt);
  std::vector<float> data(64, 0.25F);
  data[17] = kInf;
  EXPECT_FALSE(PackedCodes::pack(data, {64}, fmt, lut).has_value());
  data[17] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(PackedCodes::pack(data, {64}, fmt, lut).has_value());
}

// --- ops layer -------------------------------------------------------------

TEST(CodesOps, MatmulNtCodesBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  const auto lut = build_decode_table(fmt);
  Tensor w({33, 47});  // not multiples of the vector width
  Rng rng(11);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  const auto packed = PackedCodes::pack(w.data(), w.shape(), fmt, lut);
  ASSERT_TRUE(packed.has_value());
  Tensor wq = w;
  (void)fmt.quantize_batch(wq.data());
  Tensor x({21, 47});
  Tensor bias({33});
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());

  std::vector<std::vector<std::uint32_t>> runs;
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    const Tensor ref = matmul_nt(x, wq, &bias);
    const Tensor got = matmul_nt_codes(x, *packed, &bias);
    ASSERT_EQ(bits_of(got.data()), bits_of(ref.data())) << "threads=" << threads;
    runs.push_back(bits_of(got.data()));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(CodesOps, GroupedConvCodesBitIdentical) {
  PoolGuard guard;
  // groups=2 with an odd per-group slice (cg_out * k = 3 * 9 = 27): the
  // second group's 4-bit codes start mid-byte, exercising the unaligned
  // element-offset path.
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  const auto lut = build_decode_table(fmt);
  Tensor w({6, 1, 3, 3});
  Tensor bias({6});
  Rng rng(13);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const auto packed = PackedCodes::pack(w.data(), w.shape(), fmt, lut);
  ASSERT_TRUE(packed.has_value());
  ASSERT_EQ(packed->code_bits(), 4);
  Tensor wq = w;
  (void)fmt.quantize_batch(wq.data());

  Tensor x({2, 2, 9, 9});
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  Conv2dSpec spec;
  spec.stride = 2;
  spec.padding = 1;
  spec.groups = 2;
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    const Tensor ref = conv2d(x, wq, &bias, spec);
    const Tensor got = conv2d_codes(x, *packed, &bias, spec);
    ASSERT_EQ(bits_of(got.data()), bits_of(ref.data())) << "threads=" << threads;
  }
}

// --- runtime fallback ------------------------------------------------------

TEST(CodesRuntime, NonFiniteWeightsFallBackToFloatPayload) {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 17;
  nn::Model m = nn::build_tiny_cnn(o);
  // Poison one slot: its weights quantize to NaN on the float path, which
  // no code index can represent — the cache must fall back to a float
  // tensor for that slot and stay packed everywhere else.
  m.slot_list()[1]->weight[0] = kInf;

  runtime::InferenceSession session(m);
  std::vector<LPConfig> w(m.num_slots(), LPConfig{6, 1, 3, 0.5});
  const auto prepared =
      session.prepare(w, std::span<const LPConfig>());
  EXPECT_EQ(prepared.codes()[1].get(), nullptr);
  EXPECT_NE(prepared.weights()[1].get(), nullptr);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    if (s == 1) continue;
    EXPECT_NE(prepared.codes()[s].get(), nullptr) << "slot " << s;
  }
  const runtime::CacheStats st = session.stats();
  EXPECT_EQ(st.packed_entries, st.entries - 1);
  // The fallback float tensor is charged at full float32 size.
  EXPECT_GT(st.bytes, st.lut_bytes);
}

}  // namespace
