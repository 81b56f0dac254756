#include "src/moe/model_configs.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace samoyeds {

std::vector<MoeModelConfig> PaperModels() {
  std::vector<MoeModelConfig> models;

  MoeModelConfig qwen2;
  qwen2.name = "Qwen2-MoE";
  qwen2.cfg_group = "CFG#1";
  qwen2.num_experts = 60;
  qwen2.hidden = 1408;
  qwen2.intermediate = 2048;
  qwen2.top_k = 4;
  qwen2.default_seq = 4096;
  qwen2.default_batch = 16;  // §6.3.1: larger batch for many-expert models
  models.push_back(qwen2);

  MoeModelConfig deepseek;
  deepseek.name = "DeepSeek-MoE";
  deepseek.cfg_group = "CFG#1";
  deepseek.num_experts = 64;
  deepseek.hidden = 1408;
  deepseek.intermediate = 2048;
  deepseek.top_k = 6;
  deepseek.default_seq = 4096;
  deepseek.default_batch = 16;
  models.push_back(deepseek);

  MoeModelConfig minicpm;
  minicpm.name = "MiniCPM-MoE";
  minicpm.cfg_group = "CFG#2";
  minicpm.num_experts = 8;
  minicpm.hidden = 2304;
  minicpm.intermediate = 5760;
  minicpm.top_k = 2;
  models.push_back(minicpm);

  MoeModelConfig openmoe;
  openmoe.name = "OpenMoE-34B";
  openmoe.cfg_group = "CFG#3";
  openmoe.num_experts = 32;
  openmoe.hidden = 3072;
  openmoe.intermediate = 12288;
  openmoe.top_k = 2;
  openmoe.activation = Activation::kGeluTanh;
  openmoe.default_seq = 2048;  // §6.3.1: max sequence length constraint
  openmoe.hf_dense_expert_fallback = true;
  models.push_back(openmoe);

  MoeModelConfig mixtral;
  mixtral.name = "Mixtral-8x7B";
  mixtral.cfg_group = "CFG#4";
  mixtral.num_experts = 8;
  mixtral.hidden = 4096;
  mixtral.intermediate = 14336;
  mixtral.top_k = 2;
  models.push_back(mixtral);

  MoeModelConfig mixtral22;
  mixtral22.name = "Mixtral-8x22B";
  mixtral22.cfg_group = "CFG#5";
  mixtral22.num_experts = 8;
  mixtral22.hidden = 6144;
  mixtral22.intermediate = 16384;
  mixtral22.top_k = 2;
  models.push_back(mixtral22);

  return models;
}

const MoeModelConfig& ModelByName(const std::string& name) {
  static const std::vector<MoeModelConfig> models = PaperModels();
  for (const auto& m : models) {
    if (m.name == name) {
      return m;
    }
  }
  std::cerr << "unknown model: " << name << "\n";
  std::abort();
}

std::string ModelEcho(const MoeModelConfig& cfg, int layers, int heads) {
  char echo[160];
  std::snprintf(echo, sizeof(echo),
                "%s layers=%d hidden=%d inter=%d experts=%d top_k=%d heads=%d shared=%d",
                cfg.name.c_str(), layers, cfg.hidden, cfg.intermediate, cfg.num_experts,
                cfg.top_k, heads, cfg.shared_experts);
  return echo;
}

}  // namespace samoyeds
