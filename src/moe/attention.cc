#include "src/moe/attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/kernels/dense_gemm.h"
#include "src/tensor/gemm_ref.h"

namespace samoyeds {

AttentionWeights AttentionWeights::Random(Rng& rng, int hidden, float scale) {
  AttentionWeights w;
  w.wq = rng.GaussianMatrix(hidden, hidden, scale);
  w.wk = rng.GaussianMatrix(hidden, hidden, scale);
  w.wv = rng.GaussianMatrix(hidden, hidden, scale);
  w.wo = rng.GaussianMatrix(hidden, hidden, scale);
  return w;
}

MatrixF AttentionForward(const MatrixF& x, const AttentionWeights& w, int heads) {
  const int64_t tokens = x.rows();
  const int64_t hidden = x.cols();
  assert(hidden % heads == 0);
  const int64_t head_dim = hidden / heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));

  const MatrixF q = GemmRef(x, w.wq.Transposed());
  const MatrixF k = GemmRef(x, w.wk.Transposed());
  const MatrixF v = GemmRef(x, w.wv.Transposed());

  MatrixF ctx(tokens, hidden);
  std::vector<float> scores(static_cast<size_t>(tokens));
  for (int h = 0; h < heads; ++h) {
    const int64_t off = static_cast<int64_t>(h) * head_dim;
    for (int64_t i = 0; i < tokens; ++i) {
      // Causal: attend to positions <= i.
      float max_score = -1e30f;
      for (int64_t j = 0; j <= i; ++j) {
        float dot = 0.0f;
        for (int64_t d = 0; d < head_dim; ++d) {
          dot += q(i, off + d) * k(j, off + d);
        }
        scores[static_cast<size_t>(j)] = dot * inv_sqrt_d;
        max_score = std::max(max_score, scores[static_cast<size_t>(j)]);
      }
      float denom = 0.0f;
      for (int64_t j = 0; j <= i; ++j) {
        scores[static_cast<size_t>(j)] = std::exp(scores[static_cast<size_t>(j)] - max_score);
        denom += scores[static_cast<size_t>(j)];
      }
      for (int64_t d = 0; d < head_dim; ++d) {
        float acc = 0.0f;
        for (int64_t j = 0; j <= i; ++j) {
          acc += scores[static_cast<size_t>(j)] * v(j, off + d);
        }
        ctx(i, off + d) = acc / denom;
      }
    }
  }
  return GemmRef(ctx, w.wo.Transposed());
}

MatrixF CausalContextRows(const MatrixF& q, const MatrixF& k, const MatrixF& v, int64_t first,
                          int heads) {
  const int64_t rows = q.rows();
  const int64_t hidden = q.cols();
  assert(hidden % heads == 0);
  assert(k.rows() == first + rows && v.rows() == first + rows);
  const int64_t head_dim = hidden / heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));

  MatrixF ctx(rows, hidden);
  std::vector<float> scores(static_cast<size_t>(first + rows));
  std::vector<float> acc(static_cast<size_t>(head_dim));
  for (int h = 0; h < heads; ++h) {
    const int64_t off = static_cast<int64_t>(h) * head_dim;
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t i = first + r;  // absolute position: attends to j <= i
      float max_score = -1e30f;
      for (int64_t j = 0; j <= i; ++j) {
        float dot = 0.0f;
        for (int64_t d = 0; d < head_dim; ++d) {
          dot += q(r, off + d) * k(j, off + d);
        }
        scores[static_cast<size_t>(j)] = dot * inv_sqrt_d;
        max_score = std::max(max_score, scores[static_cast<size_t>(j)]);
      }
      float denom = 0.0f;
      for (int64_t j = 0; j <= i; ++j) {
        scores[static_cast<size_t>(j)] = std::exp(scores[static_cast<size_t>(j)] - max_score);
        denom += scores[static_cast<size_t>(j)];
      }
      // Walk v by row, one accumulator per head column: each column still
      // sums over ascending j, as AttentionForward does column by column.
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (int64_t j = 0; j <= i; ++j) {
        const float s = scores[static_cast<size_t>(j)];
        const float* vrow = &v(j, off);
        for (int64_t d = 0; d < head_dim; ++d) {
          acc[static_cast<size_t>(d)] += s * vrow[d];
        }
      }
      for (int64_t d = 0; d < head_dim; ++d) {
        ctx(r, off + d) = acc[static_cast<size_t>(d)] / denom;
      }
    }
  }
  return ctx;
}

KernelProfile AttentionProfile(int64_t seq, int64_t batch, int hidden, int heads, bool flash) {
  if (heads <= 0) {
    heads = std::max<int>(8, hidden / 128);
  }
  const int64_t tokens = seq * batch;
  // Four projection GEMMs over the whole token batch.
  KernelProfile p = DenseGemmKernel::Analyze({hidden, hidden, tokens});
  TrafficReport proj = p.traffic;
  for (int i = 0; i < 3; ++i) {
    p.traffic += proj;
  }
  p.useful_flops *= 4.0;

  // Score and context matmuls: 2 * seq^2 * hidden MACs each per sequence
  // (causal halves them).
  TrafficReport core;
  const double score_pairs = static_cast<double>(batch) * seq * seq * 0.5;
  const double score_flops = 2.0 * score_pairs * hidden;
  core.mma_flops = 2.0 * score_flops;
  core.uses_sparse_alu = false;
  core.thread_blocks = std::max<int64_t>(1, tokens / 128 * heads);
  core.warps_per_block = 8;
  core.smem_bytes_per_block = 48 << 10;
  core.pipeline_stages = flash ? 3 : 2;
  core.efficiency = flash ? 0.75 : 0.55;
  const double qkv_bytes = 3.0 * static_cast<double>(tokens) * hidden * 2.0;
  if (flash) {
    // Flash-Attention: QKV re-read once per tile wave, no score tensor.
    core.gmem_read_bytes = qkv_bytes * std::max<double>(1.0, static_cast<double>(seq) / 4096.0);
    core.gmem_write_bytes = static_cast<double>(tokens) * hidden * 2.0;
    core.gmem_unique_bytes = qkv_bytes + core.gmem_write_bytes;
    core.simd_flops = score_pairs * heads * 5.0;  // online softmax
  } else {
    // Naive path materializes the (seq x seq x heads) score tensor per
    // sequence, twice (write after QK^T, read for softmax, write, read for
    // PV).
    const double score_bytes = score_pairs * heads * 2.0;
    core.gmem_read_bytes = qkv_bytes + 2.0 * score_bytes;
    core.gmem_write_bytes = static_cast<double>(tokens) * hidden * 2.0 + 2.0 * score_bytes;
    core.gmem_unique_bytes = qkv_bytes + score_bytes + static_cast<double>(tokens) * hidden * 2.0;
    core.simd_flops = score_pairs * heads * 10.0;
  }
  core.smem_bytes = core.gmem_read_bytes * 2.0;
  core.fixed_overhead_us = flash ? 5.0 : 15.0;

  p.traffic += core;
  p.useful_flops += 2.0 * score_flops;
  p.kernel_name = flash ? "attention(flash)" : "attention(naive)";
  return p;
}

KernelProfile NormResidualProfile(int64_t tokens, int hidden) {
  KernelProfile p;
  p.kernel_name = "norm+residual";
  const double bytes = static_cast<double>(tokens) * hidden * 2.0;
  TrafficReport& t = p.traffic;
  // Two norms + two residual adds per decoder layer: each reads and writes
  // the full activation.
  t.gmem_read_bytes = 4.0 * 2.0 * bytes;
  t.gmem_write_bytes = 4.0 * bytes;
  t.gmem_unique_bytes = 2.0 * bytes;
  t.simd_flops = static_cast<double>(tokens) * hidden * 4.0 * 6.0;
  t.thread_blocks = std::max<int64_t>(1, tokens * hidden / 4096);
  t.warps_per_block = 4;
  t.pipeline_stages = 1;
  t.efficiency = 0.85;
  t.fixed_overhead_us = 8.0;
  p.useful_flops = t.simd_flops;
  return p;
}

}  // namespace samoyeds
