// Shared harness for the per-table / per-figure bench binaries.
//
// Provides the workbench (model + dataset at bench scale), the LPQ runner
// presets, and *measured stand-ins* for the competing methods in
// Tables 1/2 (EMQ, HAWQ-V3, AFP, ANT, BREC-Q, Evol-Q, FQ-ViT).  Each
// stand-in reproduces the competitor's data type and bit-allocation policy
// on this repo's substrate (see DESIGN.md section 2); its row is measured,
// not copied.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"

namespace lp::bench {

/// Model + dataset + baseline accuracy, built with bench-wide settings.
struct Workbench {
  nn::Model model;
  data::Dataset dataset;
  double fp_accuracy = 0.0;
  nn::ZooOptions zoo;
};

struct WorkbenchOptions {
  int input_size = 24;
  int classes = 24;
  int n_calibration = 24;
  int n_eval = 256;
  double target_fp_accuracy = 0.0;  ///< paper baseline for this model
  std::uint64_t seed = 2024;
};

[[nodiscard]] Workbench make_workbench(const std::string& model_name,
                                       const WorkbenchOptions& opts);

/// One row of Table 1 / Table 2.
struct MethodResult {
  std::string method;
  std::string wa;          ///< e.g. "4/4" or "MP4.2/MP5.5"
  double size_mb = 0.0;
  double top1 = 0.0;       ///< percent
};

/// Per-slot weight bit-widths (used to hand precision maps to the
/// simulator benches).
struct BitAllocation {
  std::vector<int> weight_bits;
  std::vector<int> act_bits;
  [[nodiscard]] double avg_weight_bits(const nn::Model& m) const;
  [[nodiscard]] double avg_act_bits() const;
};

/// Fast preset for the LPQ engine used by all benches (the paper's full
/// parameters are K=20 P=10 C=4; benches shrink them so a full table runs
/// in minutes on a CPU).
[[nodiscard]] lpq::LpqParams bench_lpq_params(bool transformer,
                                              bool hardware_preset);

/// Run LPQ and evaluate; `out_alloc`/`out_candidate` are optional sinks.
MethodResult run_lpq(Workbench& wb, bool transformer, bool hardware_preset,
                     BitAllocation* out_alloc = nullptr,
                     lpq::Candidate* out_candidate = nullptr);

/// Uniform INT quantization (HAWQ-V3 / FQ-ViT style): W`wbits`/A`abits`.
MethodResult run_uniform_int(Workbench& wb, const std::string& name, int wbits,
                             int abits);

/// Sensitivity-allocated mixed INT (EMQ / BREC-Q style): layers are split
/// into {2,4,8}-bit groups by quantization sensitivity; `abits` fixes the
/// activation width.
MethodResult run_mixed_int(Workbench& wb, const std::string& name, int abits);

/// AdaptivFloat (AFP style): per-layer calibrated exponent bias,
/// sensitivity-mixed widths around ~5 bits, AF8 activations.
MethodResult run_adaptivfloat(Workbench& wb, const std::string& name);

/// ANT-style flint: 4-bit with 8-bit for the most sensitive quartile.
MethodResult run_flint(Workbench& wb, const std::string& name);

/// Evol-Q style: the LPQ engine restricted to the INT data type is not
/// expressible; instead uses the global-contrastive objective over LP with
/// uniform 4-bit weights / 8-bit acts, matching Evol-Q's scale-perturbation
/// search at W4/A8.
MethodResult run_evolq_style(Workbench& wb, const std::string& name);

/// Quantized top-1 (%) under an arbitrary per-slot spec.
double evaluate_spec(Workbench& wb, const nn::QuantSpec& spec);

/// Paper-style bit allocations for the hardware benches.  The paper's LPQ
/// run on real ImageNet models lands at ~2.8 average weight bits for LPA
/// (Table 4's density implies mostly MODE-A) and 4/8 for the INT/flint
/// baselines; these allocations reproduce that precision *mix* by layer
/// sensitivity so the architecture comparison can be isolated from the
/// synthetic substrate's higher precision needs.
enum class PaperAlloc { kLpaMixed, kAnt, kIntMixed, kEightBit };
[[nodiscard]] std::vector<int> paper_allocation(const nn::Model& model,
                                                PaperAlloc kind);

/// Format a MethodResult table row.
[[nodiscard]] std::vector<std::string> to_row(const MethodResult& r);

}  // namespace lp::bench
