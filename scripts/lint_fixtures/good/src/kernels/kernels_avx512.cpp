#include <immintrin.h>

#include "kernels.h"

namespace lp::kernels {
namespace {

// Packed-double FMA over widened floats: the one fused form a SIMD table
// may use (the product of two floats is exact in double).
void gemm_rows_avx512(const float* a, const float* b, float* c, long rows,
                      long k, long n) {
  for (long i = 0; i < rows; ++i) {
    __m512d acc = _mm512_setzero_pd();
    for (long kk = 0; kk < k; ++kk) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(a[i * k + kk]),
                            _mm512_set1_pd(b[kk * n]), acc);
    }
    c[i * n] = static_cast<float>(_mm512_cvtsd_f64(acc));
  }
}

void quantize_chunk_avx512(const float* xs, unsigned* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = static_cast<unsigned>(xs[i]);
}

}  // namespace

const KernelTable* avx512_kernels() {
  static constexpr KernelTable kTable{"avx512", gemm_rows_avx512,
                                      quantize_chunk_avx512};
  return &kTable;
}

}  // namespace lp::kernels
