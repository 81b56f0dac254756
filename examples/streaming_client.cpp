// Minimal streaming client for the serving engine's session API.
//
// Demonstrates the full surface the ISSUE-5 redesign added:
//   * Submit() returns a SessionHandle instead of filling a result matrix
//     at drain time;
//   * chunked prefill serves a prompt longer than the iteration token
//     budget (it would be rejected outright with chunking off);
//   * rows stream out incrementally — one session uses the OnRows callback
//     (push), the other polls its cursor with NewRows() (pull);
//   * Cancel() tears a session down mid-stream and frees its KV pages.
//
// Build: cmake --build build --target example_streaming_client
// Run:   ./build/example_streaming_client

#include <cstdio>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/serving/engine.h"
#include "src/serving/trace.h"
#include "src/tensor/rng.h"

using namespace samoyeds;

int main() {
  // A miniature 2-layer Samoyeds decoder (hidden 32, 4 experts, top-2).
  MoeModelConfig model_cfg;
  model_cfg.name = "tiny";
  model_cfg.num_experts = 4;
  model_cfg.hidden = 32;
  model_cfg.intermediate = 64;
  model_cfg.top_k = 2;
  Rng rng(7);
  const SamoyedsConfig fmt{1, 2, 32};
  std::vector<SamoyedsDecoderLayerWeights> layers;
  for (int l = 0; l < 2; ++l) {
    layers.push_back(
        SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, model_cfg), fmt));
  }

  // Engine: 12-row iteration budget, 4-row prefill chunks. The 30-row
  // prompt below *only* fits because chunking is on.
  serving::EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = 2;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 12;
  cfg.scheduler.chunk_tokens = 4;
  serving::ServingEngine engine(std::move(layers), cfg);

  const auto make_request = [&rng, &engine](int64_t id, int64_t prompt, int64_t decode) {
    serving::TraceEntry entry;
    entry.prompt_len = prompt;
    entry.max_new_tokens = decode;
    return serving::MakeRequest(rng, id, entry, engine.hidden());
  };

  // Session 0 (push): a long prompt delivered through the OnRows callback,
  // fired inside Step() as each chunk (and later each decode row) finalizes.
  serving::SessionHandle pushed = engine.Submit(
      make_request(/*id=*/0, /*prompt=*/30, /*decode=*/4),
      [](const serving::StreamDelta& delta) {
        std::printf("  [push] session %lld: rows [%lld, %lld)%s\n",
                    static_cast<long long>(delta.session_id),
                    static_cast<long long>(delta.position_begin),
                    static_cast<long long>(delta.position_begin + delta.rows.rows()),
                    delta.finished ? "  <- finished" : "");
      });

  // Session 1 (pull): polled between Step() calls through the cursor.
  serving::SessionHandle polled = engine.Submit(make_request(1, 6, 5));

  // Session 2: cancelled mid-prefill — its pages go back to the free list.
  serving::SessionHandle doomed = engine.Submit(make_request(2, 24, 4));

  std::printf("submitted 3 sessions (ok: %d %d %d); serving...\n", pushed.ok() ? 1 : 0,
              polled.ok() ? 1 : 0, doomed.ok() ? 1 : 0);

  int64_t steps = 0;
  while (engine.Step()) {
    ++steps;
    const MatrixF rows = polled.NewRows();
    if (rows.rows() > 0) {
      std::printf("  [pull] session 1: %lld new rows (delivered %lld, status %s)\n",
                  static_cast<long long>(rows.rows()),
                  static_cast<long long>(polled.delivered_rows()),
                  serving::RequestStatusName(polled.status()));
    }
    if (steps == 3 && doomed.status() == serving::RequestStatus::kRunning) {
      const serving::CancelOutcome outcome = doomed.Cancel();
      std::printf("  [cancel] session 2 mid-prefill: %s (%lld rows kept, "
                  "%lld KV pages in use)\n",
                  serving::CancelOutcomeName(outcome),
                  static_cast<long long>(engine.Result(2)->outputs.rows()),
                  static_cast<long long>(engine.kv_cache().allocator().used_pages()));
    }
  }

  std::printf("drained after %lld steps\n", static_cast<long long>(steps));
  for (int64_t id = 0; id < 3; ++id) {
    const serving::RequestResult* result = engine.Result(id);
    std::printf("session %lld: %s, %lld output rows\n", static_cast<long long>(id),
                serving::RequestStatusName(result->status),
                static_cast<long long>(result->outputs.rows()));
  }
  serving::EngineMetrics::Print(engine.Report(), stdout);
  return 0;
}
