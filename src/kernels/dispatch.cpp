// Runtime CPU-feature dispatch: pick the kernel table once per process
// from LP_KERNEL and cpuid.  Selection never trusts compile flags alone —
// an AVX2/AVX-512 TU baked into the binary is only used when the host CPU
// reports the feature set, so one build runs correctly on any x86-64.
#include <cstdio>
#include <cstdlib>

#include "kernels/kernels.h"

namespace lp::kernels {

#if defined(LOGPOSIT_HAVE_AVX2)
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma).
const KernelTable* avx2_kernels_impl();
#endif
#if defined(LOGPOSIT_HAVE_AVX512)
// Defined in kernels_avx512.cpp (compiled with -mavx512{f,bw,vl}).
const KernelTable* avx512_kernels_impl();
#endif

const KernelTable* avx2_kernels() {
#if defined(LOGPOSIT_HAVE_AVX2)
  return avx2_kernels_impl();
#else
  return nullptr;
#endif
}

const KernelTable* avx512_kernels() {
#if defined(LOGPOSIT_HAVE_AVX512)
  return avx512_kernels_impl();
#else
  return nullptr;
#endif
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  // The avx2 TU is compiled with -mavx2 -mfma: its GEMM accumulates with
  // _mm256_fmadd_pd, so both extensions must be present.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  // The avx512 TU is compiled with -mavx512f -mavx512bw -mavx512vl, so the
  // compiler may emit any of the three anywhere in it — all must be present.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

bool is_known_kernel_name(std::string_view name) {
  return name == "scalar" || name == "avx2" || name == "avx512";
}

const KernelTable* by_name(std::string_view name) {
  if (name == "scalar") return &scalar_kernels();
  if (name == "avx2") return avx2_kernels();
  if (name == "avx512") return avx512_kernels();
  return nullptr;
}

namespace {

bool table_usable(const KernelTable* t) {
  if (t == nullptr) return false;
  if (t == &scalar_kernels()) return true;
  if (t == avx2_kernels()) return cpu_supports_avx2();
  if (t == avx512_kernels()) return cpu_supports_avx512();
  return false;
}

const KernelTable& best_available() {
  if (const KernelTable* v512 = avx512_kernels();
      v512 != nullptr && cpu_supports_avx512()) {
    return *v512;
  }
  if (const KernelTable* v2 = avx2_kernels();
      v2 != nullptr && cpu_supports_avx2()) {
    return *v2;
  }
  return scalar_kernels();
}

}  // namespace

std::vector<const KernelTable*> available_kernels() {
  std::vector<const KernelTable*> out{&scalar_kernels()};
  if (const KernelTable* t = avx2_kernels(); table_usable(t)) out.push_back(t);
  if (const KernelTable* t = avx512_kernels(); table_usable(t)) {
    out.push_back(t);
  }
  return out;
}

const KernelTable& select_kernels(const char* requested) {
  if (requested != nullptr && *requested != '\0') {
    const KernelTable* t = by_name(requested);
    if (table_usable(t)) return *t;
    const KernelTable& fallback = best_available();
    // Name the precise reason so an operator can tell a typo from a
    // build gap from a host capability gap.
    const char* reason;
    if (!is_known_kernel_name(requested)) {
      reason = "unknown kernel name";
    } else if (t == nullptr) {
      reason = "not compiled into this binary";
    } else {
      reason = "CPU lacks the required instruction-set features";
    }
    std::fprintf(stderr, "logposit: LP_KERNEL=%s is not available (%s); using '%s'\n",
                 requested, reason, fallback.name);
    return fallback;
  }
  return best_available();
}

const KernelTable& dispatch() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): resolved once under static init
  static const KernelTable& table = select_kernels(std::getenv("LP_KERNEL"));
  return table;
}

ApproxMode approx_mode_from_name(const char* requested) {
  if (requested == nullptr || *requested == '\0') return ApproxMode::kExact;
  const std::string_view name(requested);
  if (name == "off" || name == "exact") return ApproxMode::kExact;
  if (name == "plam") return ApproxMode::kPlam;
  std::fprintf(stderr,
               "logposit: LP_APPROX=%s is not a recognized approximation "
               "mode (expected 'plam', 'exact', or 'off'); using exact\n",
               requested);
  return ApproxMode::kExact;
}

ApproxMode approx_mode() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): resolved once under static init
  static const ApproxMode mode =
      approx_mode_from_name(std::getenv("LP_APPROX"));
  return mode;
}

}  // namespace lp::kernels
