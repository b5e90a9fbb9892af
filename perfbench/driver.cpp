// Benchmark driver: three workloads over the library's public APIs.
//
//   lp_perfbench --workload <serve_resnet18|lpq_resnet18>
//                --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//                [--repeat-deadline <s>]
//
// Every workload sets up from fixed model/dataset seeds; `--seed` picks
// only the generated inputs (arrival times, request samples, batch order,
// LpqParams::seed).  The untraced run measures the end-to-end metrics.
// The traced run repeats the same timed phase with spans recorded around
// each public call, then runs the per-layer probes.  The last stdout line
// is `RESULT <json>`; perfbench/run.py turns it into the benchmark record.
// See perfbench/README.md for what each workload and metric means.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/packed_codes.h"
#include "data/dataset.h"
#include "kernels/kernels.h"
#include "lpa/accel_model.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using lp::Tensor;

// The compute pool is pinned at 3 threads, next to 1 server worker and 1
// generator on the 4-vCPU bench host.  In interleaved runs it gave the
// fastest and steadiest serving figures; 1 and 2 threads were slower and
// swung more between runs (README "Noise notes").
constexpr int kPoolThreads = 3;
constexpr int kServeSetups = 3;  ///< ResNet18 W8 set-ups per run (~4 s each)
constexpr int kLpqSetups = 7;    ///< model + dataset set-ups per run (~0.3 s each)
constexpr int kWarmupForwards = 12;  ///< the first ~10 forwards run ~2x slow
constexpr double kServeRate = 30.0;  ///< phase A arrivals per second
constexpr int kBurst = 512;          ///< phase B requests per burst
constexpr std::int64_t kBatchRows = 16;  ///< probe and scoring batch
constexpr int kEvalSamples = 256;
constexpr int kQualityChanceMultiple = 8;  ///< top-1 must beat 8x chance

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double ms(Clock::duration d) { return secs(d) * 1e3; }

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The highest percentile that still has at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : 0;
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder.  Off in untraced runs (one branch per call
/// site); spans are written out and reduced to self times at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
    std::int64_t request = -1;
  };

  bool on = false;

  int open(std::string name, int parent, std::int64_t request,
           Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, start, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  int record(std::string name, int parent, std::int64_t request,
             Clock::time_point start, Clock::time_point end) {
    const int id = open(std::move(name), parent, request, start);
    close(id, end);
    return id;
  }

  /// Write every span as one JSON line and print per-name totals with
  /// self time (duration minus the part covered by child spans).
  void dump(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.empty()) return;
    const Clock::time_point t0 = spans_.front().start;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"start_us\":"
          << std::chrono::duration_cast<std::chrono::microseconds>(s.start - t0).count()
          << ",\"end_us\":"
          << std::chrono::duration_cast<std::chrono::microseconds>(s.end - t0).count()
          << "}\n";
    }
    std::vector<std::vector<std::size_t>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    struct Agg {
      std::size_t count = 0;
      double total_ms = 0.0, self_ms = 0.0;
    };
    std::vector<std::pair<std::string, Agg>> aggs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Union of child intervals clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (std::size_t k : kids[i]) {
        iv.emplace_back(std::max(spans_[k].start, s.start),
                        std::min(spans_[k].end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      Clock::duration covered{0};
      Clock::time_point cur = s.start;
      for (const auto& [a, b] : iv) {
        const Clock::time_point from = std::max(a, cur);
        if (b > from) {
          covered += b - from;
          cur = b;
        }
      }
      auto it = std::find_if(aggs.begin(), aggs.end(),
                             [&](const auto& p) { return p.first == s.name; });
      if (it == aggs.end()) {
        aggs.emplace_back(s.name, Agg{});
        it = aggs.end() - 1;
      }
      it->second.count += 1;
      it->second.total_ms += ms(s.end - s.start);
      it->second.self_ms += ms(s.end - s.start - covered);
    }
    std::printf("spans: %zu written to %s\n", spans_.size(), path.c_str());
    std::printf("  %-34s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, a] : aggs) {
      std::printf("  %-34s %8zu %12.3f %12.3f\n", name.c_str(), a.count,
                  a.total_ms, a.self_ms);
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_trace;
thread_local int t_current_span = -1;

/// RAII span around one public call, parented to the enclosing span of
/// the same thread.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1) {
    if (!g_trace.on) return;
    parent_ = t_current_span;
    id_ = g_trace.open(name, parent_, request, Clock::now());
    t_current_span = id_;
  }
  ~Scope() {
    if (id_ < 0) return;
    g_trace.close(id_, Clock::now());
    t_current_span = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_ = -1;
  int parent_ = -1;
};

// ---------------------------------------------------------------- report

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e, layers;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> facts;  ///< determinism keys

  void metric(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    layers.push_back({n, v, u});
  }
  void fact(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    facts.emplace_back(k, buf);
  }
  void fail(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

std::string json_metrics(const std::vector<Report::Metric>& ms) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    o << (i ? "," : "") << "\"" << ms[i].name << "\":{\"value\":" << buf
      << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  o << "}";
  return o.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ host context

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU ticks from /proc/stat: all states, and the part the
/// hypervisor stole (both 0 when unreadable).
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};
CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return {};
  for (auto& x : v) in >> x;
  CpuTicks t;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / static_cast<double>(total)
                   : 0.0;
}

/// Steal episodes on the bench host slow every thread hand-off of a unit
/// of timed work 2-5x (README "Noise notes").  A unit (a serving cycle, a
/// set-up) is therefore repeated while more than kQuietSteal of the host's
/// CPU ticks were stolen during it, until `want` units ran quiet, `want`
/// repeats were spent, or the repeat deadline passed.  The units that
/// count are the `want` least-stolen ones: every quiet unit, topped up with
/// the least-stolen of the rest.  `unit(i)` runs unit i; returns the
/// indices of the units that count.
constexpr double kQuietSteal = 0.03;
Clock::time_point g_repeat_deadline = Clock::time_point::max();
template <typename Unit>
std::vector<std::size_t> run_quiet(const char* what, int want, Unit unit) {
  std::vector<double> share;
  int quiet = 0;
  while (static_cast<int>(share.size()) < want ||
         (quiet < want && static_cast<int>(share.size()) < 2 * want &&
          Clock::now() < g_repeat_deadline)) {
    const CpuTicks t0 = cpu_ticks();
    unit(share.size());
    share.push_back(steal_share(t0, cpu_ticks()));
    if (share.back() <= kQuietSteal) ++quiet;
  }
  std::vector<std::size_t> order(share.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return share[a] < share[b]; });
  order.resize(static_cast<std::size_t>(want));
  std::sort(order.begin(), order.end());
  std::printf("%s: %zu units for %d, %zu repeated for steal > %.0f%%; steal %%:", what,
              share.size(), want, share.size() - static_cast<std::size_t>(want),
              kQuietSteal * 100);
  for (std::size_t i = 0; i < share.size(); ++i) {
    const bool counted = std::binary_search(order.begin(), order.end(), i);
    std::printf(" %.1f%s", share[i] * 100, counted ? "" : "x");
  }
  std::printf("\n");
  return order;
}

// ---------------------------------------------------------------- set-up

Tensor rows_of(const Tensor& t, const std::vector<std::int64_t>& idx) {
  std::vector<std::int64_t> shape = t.shape();
  const std::int64_t row = t.numel() / shape[0];
  shape[0] = static_cast<std::int64_t>(idx.size());
  Tensor out(shape);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::memcpy(out.raw() + static_cast<std::int64_t>(i) * row,
                t.raw() + idx[i] * row, static_cast<std::size_t>(row) * sizeof(float));
  }
  return out;
}

bool row_equal(const Tensor& got, std::int64_t got_row, const Tensor& ref,
               std::int64_t ref_row) {
  const std::int64_t cols = ref.dim(1);
  if (got.rank() != 2 || got.dim(1) != cols || got_row >= got.dim(0)) return false;
  return std::memcmp(got.raw() + got_row * cols, ref.raw() + ref_row * cols,
                     static_cast<std::size_t>(cols) * sizeof(float)) == 0;
}

/// One quantized model ready to serve: the model, its dataset, the W8
/// assignment, a session with the snapshot published, and the serial
/// reference logits every timed output is compared against.
struct Env {
  std::unique_ptr<lp::nn::Model> model;
  lp::data::Dataset ds;
  lp::lpq::Candidate cand;
  std::vector<lp::LPConfig> act_cfgs;
  std::unique_ptr<lp::runtime::InferenceSession> session;
  Tensor reference;  ///< serial session.run over the whole eval set
  double top1_pct = 0.0;
  double set_formats_s = 0.0;
};

std::unique_ptr<lp::nn::Model> build_model(const std::string& arch, int input,
                                           int classes) {
  Scope s("nn.build_model");
  lp::nn::ZooOptions z;
  z.input_size = input;
  z.classes = classes;
  z.seed = 7;
  return std::make_unique<lp::nn::Model>(lp::nn::build_model(arch, z));
}

lp::data::Dataset build_dataset(lp::nn::Model& model, int input, int classes,
                                int n_cal) {
  Scope s("data.make_dataset");
  lp::data::DatasetOptions d;
  d.classes = classes;
  d.n_calibration = n_cal;
  d.n_eval = kEvalSamples;
  d.seed = 1234;
  return lp::data::make_dataset(model, 3, input, d);
}

/// Publish `cand` (with calibrated activation configs) and compute the
/// serial reference logits.
void publish(Env& e, const std::vector<double>& act_scale_centers) {
  e.act_cfgs = lp::lpq::act_configs(*e.model, e.cand,
                                    lp::lpq::ActSfMode::kCalibrated,
                                    act_scale_centers);
  e.session = std::make_unique<lp::runtime::InferenceSession>(*e.model);
  {
    Scope s("runtime.set_formats");
    const auto t0 = Clock::now();
    e.session->set_formats(e.cand.layers, e.act_cfgs);
    e.set_formats_s = secs(Clock::now() - t0);
  }
  {
    Scope s("runtime.run.reference");
    e.reference = e.session->run(e.ds.eval_inputs).logits;
  }
  e.top1_pct = 100.0 * lp::data::top1_accuracy(e.reference, e.ds.eval_labels);
}

/// Model + dataset + W8 LP snapshot (sf from lpq::sf_centers, activation
/// configs calibrated on the calibration set) + reference logits.
std::unique_ptr<Env> make_w8_env(const std::string& arch, int input,
                                 int classes) {
  Scope s("setup");
  auto e = std::make_unique<Env>();
  e->model = build_model(arch, input, classes);
  e->ds = build_dataset(*e->model, input, classes, 24);
  const auto centers = lp::lpq::sf_centers(*e->model);
  for (double c : centers) {
    // es=1 keeps the derived activation formats fine enough that W8 holds
    // FP accuracy (the default es=2 gives es=4 activations and loses ~1/3
    // of ResNet18's top-1).
    lp::LPConfig cfg;
    cfg.n = 8;
    cfg.es = 1;
    cfg.rs = 7;
    cfg.sf = c;
    e->cand.layers.push_back(cfg);
  }
  lp::lpq::FpReference ref;
  {
    Scope r("lpq.compute_fp_reference");
    ref = lp::lpq::compute_fp_reference(*e->model, e->ds.calibration);
  }
  publish(*e, ref.act_scale_centers);
  return e;
}

/// Run `make` `reps` quiet times (run_quiet), keep the last result and
/// report the median time of the set-ups that count.  Every set-up must
/// reproduce the first one's `fingerprint` (a vector of floats) bitwise.
template <typename Make, typename Fingerprint>
auto timed_setup(Report& r, int reps, Make make, Fingerprint fingerprint) {
  std::vector<double> times;
  decltype(make()) env;
  std::vector<float> first;
  const auto counted = run_quiet("setup", reps, [&](std::size_t i) {
    env = nullptr;  // release the previous copy before building the next
    const auto t0 = Clock::now();
    env = make();
    times.push_back(secs(Clock::now() - t0));
    const std::vector<float> fp = fingerprint(*env);
    if (i == 0) {
      first = fp;
    } else if (fp.size() != first.size() ||
               std::memcmp(fp.data(), first.data(), fp.size() * sizeof(float)) != 0) {
      r.fail("set-up " + std::to_string(i) + " differs from the first set-up");
    }
  });
  std::vector<double> kept;
  for (std::size_t i : counted) kept.push_back(times[i]);
  r.metric("setup_s", median(kept), "s");
  return env;
}

bool quality_ok(Report& r, double top1_pct, int classes) {
  const double floor = kQualityChanceMultiple * 100.0 / classes;
  std::printf("quality: top1 %.3f%% (gate >= %.2f%%, chance %.2f%%)\n",
              top1_pct, floor, 100.0 / classes);
  if (top1_pct < floor) {
    r.fail("snapshot top-1 is at chance level; refusing to time it");
    return false;
  }
  return true;
}

void warm_up(const lp::runtime::InferenceSession& s, const Tensor& eval) {
  const Tensor one = rows_of(eval, {0});
  for (int i = 0; i < kWarmupForwards; ++i) (void)s.run(one);
}

// ------------------------------------------------------- per-layer probes

template <typename Fn>
double p50_ms_of(int reps, Fn fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms(Clock::now() - t0));
  }
  return median(t);
}

Tensor gaussian_tensor(std::vector<std::int64_t> shape, lp::Rng& rng) {
  Tensor t(std::move(shape));
  for (float& x : t.data()) x = static_cast<float>(rng.gaussian());
  return t;
}

/// A weight slot's packed codes viewed as a 2-D [M, K] operand.
std::optional<lp::PackedCodes> codes_2d(const lp::runtime::QuantizedModel& qm,
                                        const lp::nn::LayerWorkload& w) {
  if (w.weight_slot < 0) return std::nullopt;
  const auto& c = qm.codes()[static_cast<std::size_t>(w.weight_slot)];
  if (!c || c->numel() != w.m * w.k) return std::nullopt;  // grouped conv
  lp::PackedCodes out = *c;
  out.reshape({w.m, w.k});
  return out;
}

/// Probes shared by every workload, run after its timed phase on the
/// snapshot `e.session` has published.
void probe_model(Report& r, const Env& e, std::uint64_t seed) {
  Scope probes("probes");
  const auto& session = *e.session;
  const auto servable = session.servable();
  const auto& snap = servable->snapshot();
  const auto& model = *e.model;
  const Tensor& eval = e.ds.eval_inputs;
  lp::Rng rng(seed ^ 0x5eedULL);
  const std::vector<std::int64_t> sizes = {1, 16, 32};
  auto first_rows = [&](std::int64_t n) {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    return rows_of(eval, idx);
  };
  auto reps_for = [](std::int64_t b) { return b == 1 ? 11 : 3; };

  // runtime: direct run on the served snapshot; nn: the same configs with
  // float activations and with fusion off.
  lp::runtime::SessionOptions float_opts;
  float_opts.coded_activations = false;
  lp::runtime::InferenceSession float_s(model, float_opts);
  float_s.set_formats(e.cand.layers, e.act_cfgs);
  lp::runtime::SessionOptions unfused_opts;
  unfused_opts.fuse = false;
  lp::runtime::InferenceSession unfused_s(model, unfused_opts);
  unfused_s.set_formats(e.cand.layers, e.act_cfgs);
  for (std::int64_t b : sizes) {
    const Tensor in = first_rows(b);
    const std::string tag = ".b" + std::to_string(b) + ".p50";
    {
      Scope s("probe.runtime.run");
      r.layer("runtime.run_ms" + tag,
              p50_ms_of(reps_for(b), [&] { (void)session.run(in); }), "ms");
    }
    {
      Scope s("probe.nn.float_acts");
      r.layer("nn.float_acts_ms" + tag,
              p50_ms_of(reps_for(b), [&] { (void)float_s.run(in); }), "ms");
    }
    {
      Scope s("probe.nn.unfused");
      r.layer("nn.unfused_ms" + tag,
              p50_ms_of(reps_for(b), [&] { (void)unfused_s.run(in); }), "ms");
    }
  }
  const Tensor b16 = first_rows(kBatchRows);
  {
    lp::nn::ActTraffic traffic;
    (void)session.run(b16, false, &traffic);
    const double total = static_cast<double>(traffic.coded_bytes + traffic.float_bytes);
    r.layer("nn.act_coded_frac",
            total > 0 ? static_cast<double>(traffic.coded_bytes) / total : 0.0,
            "ratio");
    r.layer("nn.act_bytes_per_row", total / kBatchRows, "B");
  }
  {
    Scope s("nn.capture_forward");
    r.layer("nn.capture_forward_ms.p50", p50_ms_of(3, [&] {
              (void)snap.run(e.ds.calibration, true);
            }),
            "ms");
  }

  // kernels: replay the traced GEMM shapes of a 16-row batch through the
  // tensor coded / float-in ops on the snapshot's weight codes.
  const auto work = snap.trace_workloads(b16);
  double macs = 0.0, bytes = 0.0;
  const lp::nn::ActCoding* act = nullptr;
  for (const auto& c : snap.act_coding()) {
    if (c.qidx != nullptr) {
      act = &c;
      break;
    }
  }
  for (const auto& w : work) {
    macs += static_cast<double>(w.macs());
    const auto codes = codes_2d(snap, w);
    const double a_bytes = act ? act->bits / 8.0 : 4.0;
    bytes += (codes ? static_cast<double>(codes->payload_bytes())
                    : static_cast<double>(w.m * w.k) * 4.0) +
             static_cast<double>(w.k * w.n + w.m * w.n) * a_bytes;
  }
  r.layer("kernels.macs_per_row", macs / kBatchRows, "MAC");
  r.layer("kernels.bytes_per_row", bytes / kBatchRows, "B");
  double conv_macs = 0, lin_macs = 0, fin_macs = 0;
  std::vector<std::function<void()>> conv_ops, lin_ops, fin_ops;
  for (const auto& w : work) {
    auto codes = codes_2d(snap, w);
    if (!codes) continue;
    auto wc = std::make_shared<lp::PackedCodes>(std::move(*codes));
    const bool is_conv =
        model.slot_list()[static_cast<std::size_t>(w.weight_slot)]->weight.rank() == 4;
    auto a_float = std::make_shared<Tensor>(gaussian_tensor({w.n, w.k}, rng));
    fin_ops.push_back([a_float, wc] { (void)lp::matmul_nt_codes(*a_float, *wc); });
    fin_macs += static_cast<double>(w.macs());
    if (act == nullptr) continue;
    lp::ActEncodeSpec enc{act->qidx->view(), act->lut, act->bits, lp::kernels::kActNone};
    auto a_codes = lp::encode_acts(*a_float, enc);
    if (!a_codes) continue;
    auto ac = std::make_shared<lp::PackedCodes>(std::move(*a_codes));
    if (is_conv) {
      // A conv's GEMM is W[M,K] x patches[K,N]: replay it as a 1x1 conv
      // over a [1, K, 1, N] coded input, which is exactly that GEMM.
      auto in = std::make_shared<lp::PackedCodes>(*ac);
      in->reshape({1, w.k, 1, w.n});
      auto wt = std::make_shared<lp::PackedCodes>(*wc);
      wt->reshape({w.m, w.k, 1, 1});
      const auto zero = lp::lut_zero_code(*act->lut);
      const auto zc = static_cast<std::uint32_t>(zero < 0 ? 0 : zero);
      conv_ops.push_back([in, wt, zc] {
        (void)lp::conv2d_codes_codes(*in, *wt, nullptr, lp::Conv2dSpec{}, zc);
      });
      conv_macs += static_cast<double>(w.macs());
    } else {
      lin_ops.push_back([ac, wc] { (void)lp::matmul_nt_codes_codes(*ac, *wc); });
      lin_macs += static_cast<double>(w.macs());
    }
  }
  auto gmac_s = [&](const char* span, double m,
                    const std::vector<std::function<void()>>& ops) {
    if (ops.empty()) return 0.0;
    Scope s(span);
    const double t = p50_ms_of(3, [&] {
      for (const auto& op : ops) op();
    });
    return m / (t * 1e-3) / 1e9;
  };
  r.layer("kernels.conv_coded.gmac_s",
          gmac_s("kernels.conv_coded", conv_macs, conv_ops), "GMAC/s");
  r.layer("kernels.linear_coded.gmac_s",
          gmac_s("kernels.linear_coded", lin_macs, lin_ops), "GMAC/s");
  r.layer("kernels.float_in.gmac_s",
          gmac_s("kernels.float_in", fin_macs, fin_ops), "GMAC/s");

  // core: weight code emission and activation encode throughput.
  {
    Scope s("core.quantize_codes_batch");
    double elems = 0.0;
    std::vector<std::vector<std::uint32_t>> outs(model.num_slots());
    for (std::size_t i = 0; i < model.num_slots(); ++i) {
      outs[i].resize(model.slot_list()[i]->weight.data().size());
      elems += static_cast<double>(outs[i].size());
    }
    const double t = p50_ms_of(3, [&] {
      for (std::size_t i = 0; i < model.num_slots(); ++i) {
        const auto& f = snap.weight_formats()[i];
        if (f) (void)f->quantize_codes_batch(model.slot_list()[i]->weight.data(), outs[i]);
      }
    });
    r.layer("core.quantize_codes_melem_s", elems / (t * 1e-3) / 1e6, "Melem/s");
  }
  if (act != nullptr) {
    Scope s("core.encode_acts");
    const Tensor t = gaussian_tensor({1 << 20}, rng);
    lp::ActEncodeSpec enc{act->qidx->view(), act->lut, act->bits, lp::kernels::kActNone};
    const double tm = p50_ms_of(3, [&] { (void)lp::encode_acts(t, enc); });
    r.layer("core.encode_acts_melem_s", static_cast<double>(t.numel()) / (tm * 1e-3) / 1e6,
            "Melem/s");
  } else {
    r.layer("core.encode_acts_melem_s", 0.0, "Melem/s");
  }

  // runtime: prepare_all on a seeded 8-candidate population, each round
  // mutating one 4-slot block away from the snapshot's assignment.
  {
    Scope s("runtime.prepare_all");
    lp::runtime::InferenceSession fresh(model);
    const auto centers = lp::lpq::sf_centers(model);
    const lp::lpq::FpReference ref =
        lp::lpq::compute_fp_reference(model, e.ds.calibration);
    lp::lpq::SearchSpace space;
    auto population = [&](bool mutate) {
      std::vector<std::vector<lp::LPConfig>> w, a;
      const std::size_t slots = model.num_slots();
      const std::size_t block = mutate ? static_cast<std::size_t>(rng.uniform_int(
                                             0, static_cast<int>((slots - 1) / 4))) * 4
                                       : 0;
      for (int k = 0; k < 8; ++k) {
        lp::lpq::Candidate c = e.cand;
        if (mutate) {
          for (std::size_t l = block; l < std::min(block + 4, slots); ++l) {
            c.layers[l] = space.sample(rng, centers[l]);
          }
        }
        a.push_back(lp::lpq::act_configs(model, c, lp::lpq::ActSfMode::kCalibrated,
                                         ref.act_scale_centers));
        w.push_back(std::move(c.layers));
      }
      return std::make_pair(std::move(w), std::move(a));
    };
    {
      auto [w, a] = population(false);
      (void)fresh.prepare_all(w, a);
    }
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      auto [w, a] = population(true);
      const auto t0 = Clock::now();
      (void)fresh.prepare_all(w, a);
      t.push_back(ms(Clock::now() - t0));
    }
    r.layer("runtime.prepare_all_ms.p50", median(t), "ms");
  }

  // sim: the LPA model on the snapshot's batch-1 trace at its weight widths.
  {
    Scope s("sim.simulate");
    const auto trace = snap.trace_workloads(first_rows(1));
    lp::sim::PrecisionMap pm;
    for (const auto& c : e.cand.layers) {
      pm.weight_bits.push_back(c.n);
      pm.act_bits.push_back(8);
    }
    const auto accel = lp::lpa::make_lpa();
    lp::sim::SimResult res;
    const double t = p50_ms_of(5, [&] { res = lp::sim::simulate(accel, trace, pm); });
    double dram = 0.0;
    for (const auto& l : res.layers) dram += l.dram_bytes;
    r.layer("sim.lpa.cycles", static_cast<double>(res.total_cycles), "cycles");
    r.layer("sim.lpa.energy_uj", res.energy_mj * 1e3, "uJ");
    r.layer("sim.lpa.dram_kb", dram / 1024.0, "KiB");
    r.layer("sim.host_ms", t, "ms");
  }
}

void cache_layers(Report& r, const lp::runtime::CacheStats& st) {
  const double lookups = static_cast<double>(st.hits + st.misses);
  r.layer("runtime.cache.hits", static_cast<double>(st.hits), "count");
  r.layer("runtime.cache.misses", static_cast<double>(st.misses), "count");
  r.layer("runtime.cache.hit_ratio",
          lookups > 0 ? static_cast<double>(st.hits) / lookups : 0.0, "ratio");
  r.layer("runtime.cache.evictions", static_cast<double>(st.evictions), "count");
  r.layer("runtime.cache.mb", static_cast<double>(st.bytes) / (1024.0 * 1024.0), "MiB");
  r.layer("runtime.cache.logical_mb",
          static_cast<double>(st.logical_bytes) / (1024.0 * 1024.0), "MiB");
}

void cache_facts(Report& r, const lp::runtime::CacheStats& st) {
  r.fact("cache.hits", static_cast<double>(st.hits));
  r.fact("cache.misses", static_cast<double>(st.misses));
  r.fact("cache.evictions", static_cast<double>(st.evictions));
  std::printf("cache: hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses),
              static_cast<unsigned long long>(st.evictions));
}

/// The tail of the p50_ms samples.  It is a per-layer row, not an
/// end-to-end metric: its run-to-run spread on the bench host exceeds the
/// largest bound an end-to-end metric may carry (README "Noise notes").
void tail_layers(Report& r, const Tail& t) {
  std::printf("tail: %.3f ms = p%.1f of %zu samples\n", t.value, t.pct, t.samples);
  r.layer("latency.tail_ms", t.value, "ms");
  r.layer("latency.tail_pct", t.pct, "%");
  r.layer("latency.samples", static_cast<double>(t.samples), "count");
}

/// Per-layer rows of the layers a workload skips read 0, so every traced
/// run reports the same metric set.
void zero_layers(Report& r, const std::vector<std::pair<const char*, const char*>>& names) {
  for (const auto& [n, u] : names) r.layer(n, 0.0, u);
}

const std::vector<std::pair<const char*, const char*>> kServeLayers = {
    {"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.tail", "ms"},
    {"serve.compute_ms.p50", "ms"},    {"serve.overhead_ms.p50", "ms"},
    {"serve.batch_rows.mean", "rows"}, {"serve.drain_batch_rows.mean", "rows"},
    {"serve.degraded_frac", "ratio"},  {"serve.shed", "count"},
    {"serve.expired", "count"},        {"serve.failures", "count"},
    {"gen.late_ms.max", "ms"}};
const std::vector<std::pair<const char*, const char*>> kLpqLayers = {
    {"lpq.fp_reference_s", "s"},   {"lpq.iter_ms.p50", "ms"},
    {"lpq.eval_ms.p50", "ms"},     {"lpq.iterations", "count"},
    {"lpq.evaluations", "count"},  {"lpq.best_fitness", "loss"},
    {"lpq.avg_weight_bits", "bits"}, {"lpq.search_s", "s"}};

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  double repeat_deadline_s = 1e9;  ///< no steal repeat starts after this
};

/// Open-loop serving of ResNet18.  The run is a fixed number of cycles,
/// each a phase A slice (seeded Poisson arrivals of single-sample requests
/// at kServeRate) then a phase B burst (kBurst requests submitted at once,
/// then drained).  Each cycle yields its own phase A p50 and drain rate.
/// Host noise only ever slows a cycle, so the run reports, over the cycles
/// run_quiet counts, the fast-side quartile of each: a noise episode that
/// slows up to three quarters of the cycles moves neither figure, while a
/// change that slows every forward moves both.
constexpr double kSliceSeconds = 2.0;  ///< phase A time per cycle
constexpr int kSettleRequests = 8;     ///< OverloadPolicy::restore_after
/// One cycle's nominal length: the slice plus a burst drained at the
/// ~100 req/s of a 4-vCPU Xeon host.  The cycle count is fixed from
/// --seconds, so every run of a given length does the same work.
constexpr double kCycleSeconds = 7.0;
double g_late_max_ms = 0.0;

/// Correctness tally over every request sent, counted or not.
struct ServeTally {
  std::int64_t ok = 0, sent = 0, next_request = 0;
  double late_max_ms = 0.0;

  void check(const lp::serve::Response& resp, const Tensor& reference,
             std::int64_t sample) {
    ++sent;
    if (resp.ok() && row_equal(resp.logits, 0, reference, sample)) ++ok;
  }
};

/// One cycle's samples: phase A per request, phase B per burst.
struct ServeCycle {
  std::vector<double> lat_ms, wait_ms, compute_ms, overhead_ms, rows_a;
  std::vector<double> rows_b, degraded;
  double drain_rps = 0.0;
};

/// One phase A slice: this thread generates, submitting each request at
/// its due time; a collector thread stamps each response as it resolves
/// (FIFO, one worker).  Latency runs from the due time, so a late
/// generator or a stalled server both count.
void serve_slice(lp::serve::Server& server, const std::vector<Tensor>& samples,
                 const Tensor& reference, lp::Rng& rng, ServeTally& tally,
                 ServeCycle& out) {
  struct Req {
    Clock::time_point due;
    std::int64_t sample = 0;
  };
  std::vector<Req> plan;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / kServeRate;
    if (t >= kSliceSeconds) break;
    plan.push_back({t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(t)),
                    static_cast<std::int64_t>(rng.uniform_int(0, kEvalSamples - 1))});
  }
  const int slice_span = g_trace.on ? g_trace.open("serve.phase_a", -1, -1, Clock::now()) : -1;
  std::vector<std::future<lp::serve::Response>> futs(plan.size());
  std::vector<lp::serve::Response> resps(plan.size());
  std::vector<Clock::time_point> submitted(plan.size()), done(plan.size());
  std::vector<int> spans(plan.size(), -1);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t n_submitted = 0;
  bool aborted = false;  // the generator threw; guarded by mu
  std::thread collector([&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return aborted || n_submitted > i; });
        if (n_submitted <= i) return;
      }
      resps[i] = futs[i].get();
      done[i] = Clock::now();
    }
  });
  // The collector must be joined on every path before the vectors it
  // writes go out of scope.
  const auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      aborted = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      std::this_thread::sleep_until(plan[i].due);
      const auto now = Clock::now();
      tally.late_max_ms = std::max(tally.late_max_ms, ms(now - plan[i].due));
      const std::int64_t id = tally.next_request + static_cast<std::int64_t>(i);
      if (g_trace.on) spans[i] = g_trace.open("serve.request", slice_span, id, plan[i].due);
      auto f = server.submit(samples[static_cast<std::size_t>(plan[i].sample)]);
      submitted[i] = Clock::now();
      if (g_trace.on) g_trace.record("serve.submit", spans[i], id, now, submitted[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        futs[i] = std::move(f);
        n_submitted = i + 1;
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  collector.join();
  if (g_trace.on) g_trace.close(slice_span, Clock::now());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& resp = resps[i];
    tally.check(resp, reference, plan[i].sample);
    out.lat_ms.push_back(ms(done[i] - plan[i].due));
    out.wait_ms.push_back(ms(resp.queue_wait));
    out.compute_ms.push_back(ms(resp.compute));
    out.overhead_ms.push_back(ms(done[i] - submitted[i]) - ms(resp.queue_wait) -
                              ms(resp.compute));
    out.rows_a.push_back(static_cast<double>(resp.batch_rows));
    if (g_trace.on) {
      // Queue wait and compute come from the Response; the request's self
      // time is what is left: submit, stacking, splitting, the future.
      const std::int64_t id = tally.next_request + static_cast<std::int64_t>(i);
      const auto qend = submitted[i] + resp.queue_wait;
      g_trace.record("serve.queue_wait", spans[i], id, submitted[i], qend);
      g_trace.record("serve.compute", spans[i], id, qend, qend + resp.compute);
      g_trace.close(spans[i], done[i]);
    }
  }
  tally.next_request += static_cast<std::int64_t>(plan.size());
}

/// One phase B burst: kBurst requests submitted back to back, then drained.
void serve_burst(lp::serve::Server& server, const std::vector<Tensor>& samples,
                 const Tensor& reference, lp::Rng& rng, ServeTally& tally,
                 ServeCycle& out) {
  Scope burst("serve.burst");
  std::vector<std::int64_t> idx;
  for (int i = 0; i < kBurst; ++i) idx.push_back(rng.uniform_int(0, kEvalSamples - 1));
  std::vector<std::future<lp::serve::Response>> futs;
  const auto first = Clock::now();
  for (std::int64_t i : idx) {
    futs.push_back(server.submit(samples[static_cast<std::size_t>(i)]));
  }
  std::vector<lp::serve::Response> got;
  for (auto& f : futs) got.push_back(f.get());
  out.drain_rps = kBurst / secs(Clock::now() - first);
  for (std::size_t i = 0; i < got.size(); ++i) {
    tally.check(got[i], reference, idx[i]);
    out.rows_b.push_back(static_cast<double>(got[i].batch_rows));
    out.degraded.push_back(got[i].degraded ? 1.0 : 0.0);
  }
  // Let the overload controller see enough clear pops to restore the base
  // batching knobs before the next phase A slice (untimed).
  for (int i = 0; i < kSettleRequests; ++i) (void)server.submit(samples[0]).get();
}

std::vector<float> reference_fingerprint(const Env& e) {
  std::vector<float> fp(e.reference.data().begin(), e.reference.data().end());
  fp.push_back(static_cast<float>(e.top1_pct));
  return fp;
}

void run_serve(const Args& a, Report& r) {
  const int classes = 32;
  auto env = timed_setup(
      r, kServeSetups, [&] { return make_w8_env("resnet18", 32, classes); },
      reference_fingerprint);
  r.layer("runtime.set_formats_s", env->set_formats_s, "s");
  if (!quality_ok(r, env->top1_pct, classes)) return;
  warm_up(*env->session, env->ds.eval_inputs);

  std::vector<Tensor> samples;
  for (std::int64_t i = 0; i < kEvalSamples; ++i) {
    samples.push_back(rows_of(env->ds.eval_inputs, {i}));
  }
  lp::serve::ServerOptions so;
  so.workers = 1;
  lp::serve::Server server(env->session->publisher(), so);
  for (int i = 0; i < kWarmupForwards; ++i) (void)server.submit(samples[0]).get();

  lp::Rng rng(a.seed);
  ServeTally tally;
  std::vector<ServeCycle> cycles;
  const int want = static_cast<int>(std::max(1L, std::lround(a.seconds / kCycleSeconds)));
  const auto counted = run_quiet("serve cycles", want, [&](std::size_t) {
    cycles.emplace_back();
    serve_slice(server, samples, env->reference, rng, tally, cycles.back());
    serve_burst(server, samples, env->reference, rng, tally, cycles.back());
  });
  const auto health = server.health();
  const auto stats = server.stats();
  server.shutdown();

  // Per-cycle figures give the end-to-end metrics; the per-layer rows pool
  // the samples of the counted cycles.
  ServeCycle pool;
  std::vector<double> cycle_p50, cycle_drain;
  for (std::size_t c : counted) {
    const ServeCycle& cy = cycles[c];
    cycle_p50.push_back(median(cy.lat_ms));
    cycle_drain.push_back(cy.drain_rps);
    for (auto [dst, src] : {std::pair{&pool.lat_ms, &cy.lat_ms},
                            {&pool.wait_ms, &cy.wait_ms},
                            {&pool.compute_ms, &cy.compute_ms},
                            {&pool.overhead_ms, &cy.overhead_ms},
                            {&pool.rows_a, &cy.rows_a},
                            {&pool.rows_b, &cy.rows_b},
                            {&pool.degraded, &cy.degraded}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
  r.attempted = tally.sent;
  r.failed = tally.sent - tally.ok;
  g_late_max_ms = tally.late_max_ms;
  const Tail tail = tail_of(pool.lat_ms);
  std::printf("phase A: %zu counted requests at %.0f req/s over %zu x %.1f s; "
              "tail = p%.1f of %zu samples\n",
              pool.lat_ms.size(), kServeRate, counted.size(), kSliceSeconds, tail.pct,
              tail.samples);
  std::printf("phase B: %zu counted bursts of %d\n", counted.size(), kBurst);
  std::printf("per cycle (x: not counted): p50 ms / drain req/s:");
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    std::printf(" %.2f/%.1f%s", median(cycles[c].lat_ms), cycles[c].drain_rps,
                std::binary_search(counted.begin(), counted.end(), c) ? "" : "x");
  }
  std::printf("\n");
  r.metric("p50_ms", quantile(cycle_p50, 0.25), "ms");
  tail_layers(r, tail);
  r.metric("rows_per_s", quantile(cycle_drain, 0.75), "1/s");
  r.metric("ok_frac", static_cast<double>(tally.ok) / static_cast<double>(tally.sent), "ratio");
  r.metric("top1_pct", env->top1_pct, "%");

  r.layer("serve.queue_wait_ms.p50", median(pool.wait_ms), "ms");
  r.layer("serve.queue_wait_ms.tail", tail_of(pool.wait_ms).value, "ms");
  r.layer("serve.compute_ms.p50", median(pool.compute_ms), "ms");
  r.layer("serve.overhead_ms.p50", median(pool.overhead_ms), "ms");
  r.layer("serve.batch_rows.mean", mean(pool.rows_a), "rows");
  r.layer("serve.drain_batch_rows.mean", mean(pool.rows_b), "rows");
  r.layer("serve.degraded_frac", mean(pool.degraded), "ratio");
  r.layer("serve.shed", static_cast<double>(health.shed), "count");
  r.layer("serve.expired", static_cast<double>(health.expired), "count");
  r.layer("serve.failures", static_cast<double>(stats.failures), "count");
  r.layer("gen.late_ms.max", tally.late_max_ms, "ms");
  r.fact("top1_pct", env->top1_pct);
  cache_facts(r, env->session->stats());
  // Peak RSS of the workload itself, before any traced probe.
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  if (a.trace) {
    cache_layers(r, env->session->stats());
    zero_layers(r, kLpqLayers);
    probe_model(r, *env, a.seed);
  }
}

/// LPQ search on ResNet18 at the quantize_resnet budget, repeated with
/// LpqParams::seed = --seed to fill --seconds.  Every repeat must find the
/// first search's result and cache counters exactly.  The search count is
/// fixed from --seconds, at the ~11 s one search takes on a 4-vCPU Xeon host.
constexpr double kSearchSeconds = 11.0;

void run_lpq(const Args& a, Report& r) {
  const int input = 24, classes = 24;
  struct LpqEnv {
    std::unique_ptr<lp::nn::Model> model;
    lp::data::Dataset ds;
  };
  auto env = timed_setup(
      r, kLpqSetups,
      [&] {
        Scope s("setup");
        auto e = std::make_unique<LpqEnv>();
        e->model = build_model("resnet18", input, classes);
        e->ds = build_dataset(*e->model, input, classes, 24);
        return e;
      },
      [](const LpqEnv& e) {
        const auto d = e.ds.calibration.data();
        return std::vector<float>(d.begin(), d.end());
      });
  const auto& model = *env->model;
  {  // warm the pool and kernels before timing
    const Tensor x = rows_of(env->ds.eval_inputs, {0});
    for (int i = 0; i < kWarmupForwards; ++i) (void)model.forward(x);
  }

  lp::lpq::LpqParams params;
  params.population = 8;
  params.passes = 2;
  params.cycles = 2;
  params.block_size = 4;

  params.seed = a.seed;
  std::vector<double> iter_ms, search_s, ctor_s, evals_per_s;
  lp::lpq::LpqResult first;
  lp::runtime::CacheStats first_stats;
  double first_evaluations = 0.0;
  {
    Scope loop("lpq.searches");
    const long searches = std::max(1L, std::lround(a.seconds / kSearchSeconds));
    for (long k = 0; k < searches; ++k) {
      const auto s0 = Clock::now();
      std::optional<lp::lpq::LpqEngine> engine;
      {
        Scope c("lpq.engine");
        engine.emplace(model, env->ds.calibration, params);
      }
      const auto s1 = Clock::now();
      lp::lpq::LpqResult res;
      {
        Scope run("lpq.run");
        auto prev = Clock::now();
        res = engine->run([&](const lp::lpq::IterationStat& st, const lp::lpq::Candidate&) {
          const auto now = Clock::now();
          iter_ms.push_back(ms(now - prev));
          if (g_trace.on) g_trace.record("lpq.iteration", run.id(), st.iteration, prev, now);
          prev = now;
        });
      }
      const auto s2 = Clock::now();
      search_s.push_back(secs(s2 - s0));
      ctor_s.push_back(secs(s1 - s0));
      // Candidate evaluations: the initial population, then per population
      // update one child plus its diversity children (lpq.h, Steps 2-4).
      const double evaluations =
          params.population +
          static_cast<double>(res.history.size()) * (1 + params.diversity_children);
      evals_per_s.push_back(evaluations * static_cast<double>(env->ds.calibration.dim(0)) /
                            search_s.back());
      const auto stats = engine->session().stats();
      if (k == 0) {
        first = res;
        first_stats = stats;
        first_evaluations = evaluations;
      } else if (res.best.fitness != first.best.fitness ||
                 res.history.size() != first.history.size() ||
                 stats.hits != first_stats.hits || stats.misses != first_stats.misses ||
                 stats.evictions != first_stats.evictions) {
        r.fail("search " + std::to_string(k) + " with the same seed differs from the first");
      }
    }
  }

  // Score the first search's best candidate on the eval set: a serial
  // whole-set run is the reference; 16-row batches must match it bitwise.
  Env e;
  e.model = std::move(env->model);
  e.ds = std::move(env->ds);
  e.cand = first.best;
  lp::lpq::FpReference ref;
  {
    Scope s("lpq.compute_fp_reference");
    ref = lp::lpq::compute_fp_reference(*e.model, e.ds.calibration);
  }
  publish(e, ref.act_scale_centers);
  r.layer("runtime.set_formats_s", e.set_formats_s, "s");
  if (!quality_ok(r, e.top1_pct, classes)) return;
  std::int64_t ok = 0, rows = 0;
  for (std::int64_t b = 0; b < kEvalSamples / kBatchRows; ++b) {
    std::vector<std::int64_t> idx;
    for (std::int64_t k = 0; k < kBatchRows; ++k) idx.push_back(b * kBatchRows + k);
    const Tensor logits = e.session->run(rows_of(e.ds.eval_inputs, idx)).logits;
    for (std::int64_t k = 0; k < kBatchRows; ++k) {
      ++rows;
      if (row_equal(logits, k, e.reference, idx[static_cast<std::size_t>(k)])) {
        ++ok;
      } else {
        ++r.failed;
      }
    }
  }
  r.attempted = rows;

  const auto st = lp::lpq::candidate_stats(*e.model, first.best);
  const double best_fitness = first.history.empty() ? first.best.fitness
                                                    : first.history.back().best_fitness;
  const Tail tail = tail_of(iter_ms);
  std::printf("lpq: %zu searches, search_s:", search_s.size());
  for (double d : search_s) std::printf(" %.3f", d);
  std::printf("; tail = p%.1f of %zu iterations\n", tail.pct, tail.samples);
  std::printf("lpq: seed %llu best_fitness %.17g avg_weight_bits %.6f\n",
              static_cast<unsigned long long>(a.seed), best_fitness, st.avg_weight_bits);
  r.metric("p50_ms", median(iter_ms), "ms");
  tail_layers(r, tail);
  r.metric("rows_per_s", median(evals_per_s), "1/s");
  r.metric("ok_frac", static_cast<double>(ok) / static_cast<double>(rows), "ratio");
  r.metric("top1_pct", e.top1_pct, "%");
  r.fact("best_fitness", best_fitness);
  r.fact("avg_weight_bits", st.avg_weight_bits);
  r.fact("top1_pct", e.top1_pct);
  cache_facts(r, first_stats);
  // Peak RSS of the workload itself, before any traced probe.
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  if (a.trace) {
    cache_layers(r, first_stats);
    zero_layers(r, kServeLayers);
    r.layer("lpq.fp_reference_s", median(ctor_s), "s");
    r.layer("lpq.iter_ms.p50", median(iter_ms), "ms");
    {
      Scope s("lpq.evaluate_fitness_prepared");
      const auto qm = e.session->prepare(first.best.layers, e.act_cfgs);
      lp::lpq::FitnessOptions fo;
      r.layer("lpq.eval_ms.p50", p50_ms_of(5, [&] {
                (void)lp::lpq::evaluate_fitness_prepared(qm, *e.model, first.best,
                                                          e.ds.calibration, ref, fo);
              }),
              "ms");
    }
    r.layer("lpq.iterations", static_cast<double>(first.history.size()), "count");
    r.layer("lpq.evaluations", first_evaluations, "count");
    r.layer("lpq.best_fitness", best_fitness, "loss");
    r.layer("lpq.avg_weight_bits", st.avg_weight_bits, "bits");
    r.layer("lpq.search_s", median(search_s), "s");
    probe_model(r, e, a.seed);
  }
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-dir") a.trace_dir = v;
    else if (k == "--repeat-deadline") a.repeat_deadline_s = std::stod(v);
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "lp_perfbench: %s\n", ex.what());
    return 2;
  }
  lp::set_default_pool_threads(kPoolThreads);
  g_trace.on = a.trace;
  g_repeat_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(a.repeat_deadline_s));
  const CpuTicks ticks0 = cpu_ticks();

  Report r;
  try {
    if (a.workload == "serve_resnet18") {
      run_serve(a, r);
    } else if (a.workload == "lpq_resnet18") {
      run_lpq(a, r);
    } else {
      std::fprintf(stderr, "lp_perfbench: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "lp_perfbench: %s\n", ex.what());
    return 1;
  }
  if (r.failed > 0) {
    r.fail(std::to_string(r.failed) + " outputs differ from the serial reference");
  }

  const CpuTicks ticks1 = cpu_ticks();
  std::printf(
      "context: kernel=%s approx=%s pool_threads=%d cpu=\"%s\" steal_ticks=%llu "
      "steal_pct=%.2f gen_late_ms_max=%.3f\n",
      lp::kernels::dispatch().name,
      lp::kernels::approx_mode() == lp::kernels::ApproxMode::kPlam ? "plam" : "exact",
      lp::default_pool().thread_count(), cpu_model().c_str(),
      static_cast<unsigned long long>(ticks1.steal - ticks0.steal),
      steal_share(ticks0, ticks1) * 100, g_late_max_ms);
  if (a.trace) {
    g_trace.dump(a.trace_dir + "/spans-" + a.workload + "-seed" + std::to_string(a.seed) +
                 ".jsonl");
  }

  std::ostringstream facts;
  facts << "{";
  for (std::size_t i = 0; i < r.facts.size(); ++i) {
    facts << (i ? "," : "") << "\"" << r.facts[i].first << "\":\"" << r.facts[i].second << "\"";
  }
  facts << "}";
  std::printf("RESULT {\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s,"
              "\"layers\":%s,\"facts\":%s}\n",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), json_metrics(r.e2e).c_str(),
              json_metrics(r.layers).c_str(), facts.str().c_str());
  return r.correct ? 0 : 1;
}
