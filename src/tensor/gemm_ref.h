// Reference dense linear algebra used as the correctness oracle for every
// sparse kernel in the project. The GEMM's result is defined by its scalar
// loop; faster variants must reproduce it bit for bit.

#ifndef SAMOYEDS_SRC_TENSOR_GEMM_REF_H_
#define SAMOYEDS_SRC_TENSOR_GEMM_REF_H_

#include "src/tensor/matrix.h"

namespace samoyeds {

// C = A(m x k) * B(k x n). Result allocated fresh.
MatrixF GemmRef(const MatrixF& a, const MatrixF& b);

// C += A * B into an existing accumulator (shapes must match). Per element
// c(i,j) += a(i,p) * b(p,j) over p ascending, skipping a(i,p) == 0, with a
// separate multiply and add. Runs the widest bit-exact SIMD variant the CPU
// supports (kernel_backend.h), else the scalar loop; every path gives the
// same bits.
void GemmAccumulateRef(const MatrixF& a, const MatrixF& b, MatrixF& c);

// Maximum absolute elementwise difference between two equal-shaped matrices.
float MaxAbsDiff(const MatrixF& a, const MatrixF& b);

// Frobenius norm.
double FrobeniusNorm(const MatrixF& m);

// Relative Frobenius error ||a - b||_F / ||b||_F (0 when both are zero).
double RelativeError(const MatrixF& a, const MatrixF& b);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_TENSOR_GEMM_REF_H_
