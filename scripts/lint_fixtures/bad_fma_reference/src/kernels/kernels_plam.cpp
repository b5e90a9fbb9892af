#include <immintrin.h>

#include "kernels.h"

namespace lp::kernels::plam {

double mitchell_mul(double x, double y) { return x * y; }

// VIOLATION: the PLAM step fused into the accumulate.  mitchell_mul's
// product is not exact, so fusing it changes the PLAM kernel's bits.
bool gemm_codes_nt_rows(const float* a, const float* b, float* c,
                        long row_begin, long row_end, long k, long n) {
  for (long i = row_begin; i < row_end; ++i) {
    __m128d acc = _mm_setzero_pd();
    for (long kk = 0; kk < k; ++kk) {
      acc = _mm_fmadd_pd(_mm_set1_pd(a[i * k + kk]), _mm_set1_pd(b[kk * n]),
                         acc);
    }
    c[i * n] = static_cast<float>(_mm_cvtsd_f64(acc));
  }
  return true;
}

}  // namespace lp::kernels::plam
