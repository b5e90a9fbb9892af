// Thread-pool subsystem tests plus the determinism contract: every
// parallel hot path (forward pass, batched quantization, full LPQ search)
// must be bit-identical between threads=1 and threads=8, because chunk
// boundaries and reduction order never depend on the pool size.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/lp_format.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp {
namespace {

/// Restores the shared default pool to automatic sizing when a test ends.
struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr std::int64_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](std::int64_t c) {
    hits[static_cast<std::size_t>(c)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::int64_t sum = 0;
  pool.run_chunks(100, [&](std::int64_t c) { sum += c; });  // no data race
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(64,
                               [&](std::int64_t c) {
                                 if (c == 17) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ThreadPool, NestedRunChunksDoesNotDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> inner(16 * 16);
  pool.run_chunks(16, [&](std::int64_t outer) {
    pool.run_chunks(16, [&](std::int64_t i) {
      inner[static_cast<std::size_t>(outer * 16 + i)].fetch_add(1);
    });
  });
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeWithFixedChunks) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(107);
  std::atomic<std::int64_t> max_chunk{-1};
  parallel_for(pool, 0, 107, 10,
               [&](std::int64_t b, std::int64_t e, std::int64_t c) {
                 EXPECT_EQ(b, c * 10);
                 EXPECT_LE(e - b, 10);
                 for (std::int64_t i = b; i < e; ++i) {
                   hits[static_cast<std::size_t>(i)].fetch_add(1);
                 }
                 std::int64_t seen = max_chunk.load();
                 while (c > seen && !max_chunk.compare_exchange_weak(seen, c)) {
                 }
               });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(max_chunk.load(), 10);  // ceil(107/10) = 11 chunks
}

TEST(ThreadPool, ConcurrentExternalSubmittersEachCompleteExactlyOnce) {
  // The serving layer's pattern: many non-pool threads issuing run_chunks
  // against the shared pool at once.  Every submitter's chunks must run
  // exactly once, with no cross-talk between the private task sets.
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr std::int64_t kChunks = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kChunks);
  }
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 4; ++round) {
        pool.run_chunks(kChunks, [&, s](std::int64_t c) {
          hits[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)]
              .fetch_add(1);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (const auto& per_submitter : hits) {
    for (const auto& h : per_submitter) EXPECT_EQ(h.load(), 4);
  }
}

TEST(ThreadPool, SubmissionFromPoolTaskDoesNotDeadlock) {
  // A chunk body that itself submits work — the reentrancy contract's
  // first clause.  Distinct from NestedRunChunksDoesNotDeadlock above in
  // that the outer fan-out saturates the pool first, so inner submissions
  // necessarily run while every worker is busy.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run_chunks(8, [&](std::int64_t) {
    pool.run_chunks(8, [&](std::int64_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPool, DeepNestingFallsBackToSerialInline) {
  // Once one thread's run_chunks stack reaches kMaxNestingDepth, further
  // calls on that thread run their chunks serially inline — same chunk
  // set and order, bounded stack and no further fan-out.  Single-chunk
  // calls execute inline on the caller, so they build same-thread depth
  // deterministically; the multi-chunk call at the bottom must then stay
  // on the submitting thread instead of fanning out.
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  std::function<void(int)> descend = [&](int depth) {
    if (depth >= ThreadPool::kMaxNestingDepth) {
      const std::thread::id self = std::this_thread::get_id();
      pool.run_chunks(8, [&, self](std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        leaves.fetch_add(1);
      });
      return;
    }
    pool.run_chunks(1, [&](std::int64_t) { descend(depth + 1); });
  };
  descend(0);
  EXPECT_EQ(leaves.load(), 8);
}

TEST(ThreadPool, ResolveThreadsHonorsRequestAndFloor) {
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
}

TEST(ThreadPool, BalancedGrainSplitsFourChunksPerThread) {
  EXPECT_EQ(balanced_grain(1024, 4), 64);
  EXPECT_EQ(balanced_grain(3, 8), 1);
  EXPECT_EQ(balanced_grain(1, 1), 1);
}

std::vector<std::uint32_t> tensor_bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  bits.reserve(static_cast<std::size_t>(t.numel()));
  for (const float v : t.data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

TEST(PoolDeterminism, ForwardLogitsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  nn::ZooOptions o;
  o.input_size = 32;
  o.classes = 16;
  const nn::Model cnn = nn::build_tiny_cnn(o);
  const nn::Model vit = nn::build_tiny_vit(o);
  const nn::Model swin = nn::build_model("swin_t", o);  // windowed attention
  Tensor x({4, 3, 32, 32});
  Rng rng(7);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());

  set_default_pool_threads(1);
  const auto cnn1 = tensor_bits(cnn.forward(x).logits);
  const auto vit1 = tensor_bits(vit.forward(x).logits);
  const auto swin1 = tensor_bits(swin.forward(x).logits);
  set_default_pool_threads(8);
  const auto cnn8 = tensor_bits(cnn.forward(x).logits);
  const auto vit8 = tensor_bits(vit.forward(x).logits);
  const auto swin8 = tensor_bits(swin.forward(x).logits);
  EXPECT_EQ(cnn1, cnn8);
  EXPECT_EQ(vit1, vit8);
  EXPECT_EQ(swin1, swin8);
}

TEST(PoolDeterminism, QuantizeBatchBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const LPFormat fmt(LPConfig{6, 1, 3, 0.5});
  Rng rng(11);
  // Several reduction chunks plus a ragged tail.
  std::vector<float> data(5 * (1U << 15) + 1234);
  for (float& v : data) v = static_cast<float>(rng.gaussian(0.0, 2.0));

  std::vector<float> serial = data;
  set_default_pool_threads(1);
  const double se1 = fmt.quantize_batch(serial);
  std::vector<float> pooled = data;
  set_default_pool_threads(8);
  const double se8 = fmt.quantize_batch(pooled);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(se1), std::bit_cast<std::uint64_t>(se8));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i]),
              std::bit_cast<std::uint32_t>(pooled[i]))
        << "element " << i;
  }
}

lpq::LpqResult run_small_lpq(int threads) {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  const nn::Model m = nn::build_tiny_cnn(o);
  Tensor calib({2, 3, 16, 16});
  Rng rng(5);
  for (float& v : calib.data()) v = static_cast<float>(rng.gaussian());
  lpq::LpqParams params;
  params.population = 6;
  params.passes = 1;
  params.cycles = 1;
  params.block_size = 4;
  params.diversity_children = 2;
  params.threads = threads;
  lpq::LpqEngine engine(m, calib, params);
  return engine.run();
}

TEST(PoolDeterminism, LpqBestBitIdenticalAcrossThreadCounts) {
  const lpq::LpqResult r1 = run_small_lpq(1);
  const lpq::LpqResult r8 = run_small_lpq(8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r1.best.fitness),
            std::bit_cast<std::uint64_t>(r8.best.fitness));
  ASSERT_EQ(r1.best.layers.size(), r8.best.layers.size());
  for (std::size_t l = 0; l < r1.best.layers.size(); ++l) {
    EXPECT_EQ(r1.best.layers[l].n, r8.best.layers[l].n) << "layer " << l;
    EXPECT_EQ(r1.best.layers[l].es, r8.best.layers[l].es) << "layer " << l;
    EXPECT_EQ(r1.best.layers[l].rs, r8.best.layers[l].rs) << "layer " << l;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r1.best.layers[l].sf),
              std::bit_cast<std::uint64_t>(r8.best.layers[l].sf))
        << "layer " << l;
  }
  ASSERT_EQ(r1.history.size(), r8.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r1.history[i].best_fitness),
              std::bit_cast<std::uint64_t>(r8.history[i].best_fitness));
  }
}

}  // namespace
}  // namespace lp
