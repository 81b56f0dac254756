// MoE model configurations evaluated in the paper (Table 2), plus the
// per-model experiment defaults used in §6.2-6.3.

#ifndef SAMOYEDS_SRC_MOE_MODEL_CONFIGS_H_
#define SAMOYEDS_SRC_MOE_MODEL_CONFIGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace samoyeds {

enum class Activation {
  kSilu,       // SwiGLU-style gate (Mixtral, DeepSeek, Qwen2, MiniCPM)
  kGeluTanh,   // OpenMoE's activation, unsupported by MegaBlocks/vLLM kernels
};

struct MoeModelConfig {
  std::string name;
  std::string cfg_group;  // CFG#1..CFG#5 of Table 2
  int num_experts = 8;
  int hidden = 4096;
  int intermediate = 14336;
  int top_k = 2;
  // Isolated shared experts processed by every token (§6.2's second routing
  // type); 0 for the "without shared experts" variants.
  int shared_experts = 0;
  Activation activation = Activation::kSilu;
  // End-to-end defaults from §6.3.1.
  int default_seq = 4096;
  int default_batch = 1;
  // Whether the HF-Transformers implementation of this model computes all
  // experts densely over all tokens (OpenMoE's "unique computation
  // process", see Table 3's 18.67x outlier).
  bool hf_dense_expert_fallback = false;

  int64_t expert_params() const {
    return 3ll * hidden * intermediate;  // gate_proj + up_proj + down_proj
  }
};

// The six models of Table 2, in paper order.
std::vector<MoeModelConfig> PaperModels();

// Lookup by name; aborts on unknown names (programming error).
const MoeModelConfig& ModelByName(const std::string& name);

// The model-shape echo a serving report's `config.model` carries:
// "<name> layers=2 hidden=32 inter=64 experts=8 top_k=2 heads=4 shared=0".
std::string ModelEcho(const MoeModelConfig& cfg, int layers, int heads);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_MOE_MODEL_CONFIGS_H_
