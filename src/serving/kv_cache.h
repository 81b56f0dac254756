// Paged KV-cache allocator for the serving engine (vLLM-style).
//
// The engine caches, per layer, each resident sequence's attention-normed
// prefix rows (the functional stand-in for K/V). Instead of one contiguous
// buffer per sequence, rows live in fixed-size pages of `page_tokens` token
// slots drawn from a shared pool:
//
//   * KvPageAllocator — pure page accounting: a free list, per-sequence page
//     tables, per-page refcounts, all-or-nothing Extend, and fragmentation
//     stats. This is what admission control and the preemption policy reason
//     about.
//   * PagedKvCache — the allocator plus the backing storage: one float arena
//     per layer, indexed by (page * page_tokens + offset) * hidden. A
//     sequence's page table is shared across layers; each layer stores its
//     rows at the same slots in its own arena.
//   * HostSwapTier — a simulated host-memory tier for swap-style preemption:
//     a victim's cached rows move out wholesale and are restored bit-exactly
//     on re-admission instead of being recomputed.
//
// Pages are refcounted so several holders (sequences via CreateMapped, the
// prefix cache's radix nodes via Retain) can map the same physical page.
// Writes only ever append at a sequence's tail, so at most the first page of
// a write range can be shared; PagedKvCache::Extend copy-on-write-splits that
// page before the append lands.
//
// `total_pages == 0` runs the pool unbounded (pages are minted on demand),
// so only the token budget limits admission. A bounded pool gives admission
// control and eviction a hard budget to pack against.
//
// Thread-safety: Extend / Free / Reset / CreateMapped mutate shared state
// (including arena growth) and must run on the engine thread only. Row /
// GatherRows touch only the target sequence's slots, so concurrent calls for
// *distinct* sequences (the engine's per-sequence attention tasks) are safe.

#ifndef SAMOYEDS_SRC_SERVING_KV_CACHE_H_
#define SAMOYEDS_SRC_SERVING_KV_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace samoyeds {
namespace serving {

struct KvCacheConfig {
  int64_t page_tokens = 16;  // token slots per page (>= 1)
  int64_t total_pages = 0;   // pool size; 0 = unbounded (minted on demand)
};

// ceil(tokens / page_tokens); 0 tokens need 0 pages.
int64_t PagesForTokens(int64_t tokens, int64_t page_tokens);

class KvPageAllocator {
 public:
  explicit KvPageAllocator(const KvCacheConfig& config);

  // Grows `seq_id` (created on first call) by `tokens` slots, acquiring pages
  // from the free list as needed. All-or-nothing: on failure (bounded pool
  // exhausted) no state changes and false is returned.
  bool Extend(int64_t seq_id, int64_t tokens);

  // Pages a hypothetical Extend(seq_id, tokens) would acquire.
  int64_t PagesToExtend(int64_t seq_id, int64_t tokens) const;

  // Pages a write of `tokens` more slots really needs: PagesToExtend plus one
  // when the sequence's partially filled tail page is shared (refcount > 1)
  // and must be copy-on-write split before the append.
  int64_t PagesToPrepareWrite(int64_t seq_id, int64_t tokens) const;

  // Creates `seq_id` mapping `pages` (existing, live pages — e.g. a matched
  // prefix-cache path), retaining each. pages.size() must equal
  // PagesForTokens(tokens). Returns false (no state change) if the sequence
  // already exists.
  bool CreateMapped(int64_t seq_id, const std::vector<int32_t>& pages, int64_t tokens);

  // Replaces the shared page at `page_index` of `seq_id`'s table with a fresh
  // private copy slot (refcount 1), releasing the sequence's reference on the
  // old page. Requires refcount(old) > 1. Returns the new page id, or -1 when
  // a bounded pool has no free page (no state change). The caller copies the
  // payload.
  int32_t CowSplit(int64_t seq_id, size_t page_index);

  // Drops one reference per page of the sequence; pages reaching refcount 0
  // return to the free list (LIFO, so page ids are reused deterministically).
  // Returns false for unknown / already-freed ids (idempotent, no state
  // change), true when the sequence existed.
  bool Free(int64_t seq_id);

  // Extra references held by non-sequence owners (the prefix cache's radix
  // nodes). Retain/Release on a page id that is not live is a bug.
  void Retain(int32_t page);
  void Release(int32_t page);
  int32_t refcount(int32_t page) const;

  // Drops every sequence and returns the allocator to its initial state.
  void Reset();

  bool Has(int64_t seq_id) const { return seqs_.count(seq_id) != 0; }
  int64_t SequenceTokens(int64_t seq_id) const;
  const std::vector<int32_t>& SequencePages(int64_t seq_id) const;
  // Global slot index of a sequence's token: page * page_tokens + offset.
  int64_t SlotOf(int64_t seq_id, int64_t token) const;

  int64_t page_tokens() const { return config_.page_tokens; }
  bool bounded() const { return config_.total_pages > 0; }
  // Bounded: the configured pool size. Unbounded: pages minted so far, so the
  // invariant used_pages() + free_pages() == total_pages() holds either way.
  int64_t total_pages() const { return bounded() ? config_.total_pages : minted_; }
  // Pages ever drawn from the pool (ids 0..minted-1): what backing storage
  // actually has to cover, which can be far below a large configured bound.
  int64_t minted_pages() const { return minted_; }
  int64_t used_pages() const { return used_pages_; }
  int64_t free_pages() const { return total_pages() - used_pages_; }
  // Pages currently held by more than one reference (prefix sharing).
  int64_t shared_pages() const { return shared_pages_; }
  int64_t num_sequences() const { return static_cast<int64_t>(seqs_.size()); }
  int64_t cached_tokens() const { return cached_tokens_; }
  // Allocated-but-unused token slots (internal fragmentation across all
  // resident sequences' tail pages). Sharing lets cached tokens exceed the
  // used-page capacity, so the waste is clamped at zero.
  int64_t FragmentationWaste() const {
    return std::max<int64_t>(0, used_pages_ * config_.page_tokens - cached_tokens_);
  }

 private:
  struct SequenceState {
    std::vector<int32_t> pages;
    int64_t tokens = 0;
  };

  int32_t AcquirePage();  // free list first, else mint (caller checked bounds)
  void ReleasePage(int32_t page);

  KvCacheConfig config_;
  std::vector<int32_t> free_list_;
  std::vector<int32_t> ref_;  // per minted page id
  int64_t minted_ = 0;  // pages ever drawn from the pool (ids 0..minted_-1)
  int64_t used_pages_ = 0;
  int64_t shared_pages_ = 0;  // pages with refcount >= 2
  int64_t cached_tokens_ = 0;
  std::map<int64_t, SequenceState> seqs_;
};

class PagedKvCache {
 public:
  PagedKvCache(const KvCacheConfig& config, int64_t layers, int64_t hidden);

  // Accounting mutations; see KvPageAllocator. Extend also grows the per-layer
  // arenas to cover newly minted pages and copy-on-write splits a shared tail
  // page before the append (engine thread only). All-or-nothing including the
  // COW page.
  bool Extend(int64_t seq_id, int64_t tokens);
  bool CreateMapped(int64_t seq_id, const std::vector<int32_t>& pages, int64_t tokens) {
    return alloc_.CreateMapped(seq_id, pages, tokens);
  }
  bool Free(int64_t seq_id) { return alloc_.Free(seq_id); }
  void Reset() { alloc_.Reset(); }

  // Pointer to the hidden-sized row of `token` in `layer`'s arena.
  float* Row(int64_t seq_id, int64_t layer, int64_t token);
  const float* Row(int64_t seq_id, int64_t layer, int64_t token) const;

  // Copies rows [0, count) of `layer` into `dst` (count x hidden, row-major) —
  // the page-table gather that feeds attention.
  void GatherRows(int64_t seq_id, int64_t layer, int64_t count, float* dst) const;
  // Inverse of GatherRows: writes `src` (count x hidden) into rows [0, count)
  // of `layer` — the swap-in restore path. The caller Extended the sequence.
  void ScatterRows(int64_t seq_id, int64_t layer, int64_t count, const float* src);

  const KvPageAllocator& allocator() const { return alloc_; }
  KvPageAllocator& mutable_allocator() { return alloc_; }
  int64_t layers() const { return layers_; }
  int64_t hidden() const { return hidden_; }
  // Copy-on-write page splits performed so far (monotone).
  int64_t cow_splits() const { return cow_splits_; }

 private:
  void GrowArena();

  KvPageAllocator alloc_;
  int64_t layers_ = 0;
  int64_t hidden_ = 0;
  int64_t cow_splits_ = 0;
  std::vector<std::vector<float>> arena_;  // per layer: slots * hidden floats
};

// Simulated host-memory tier backing swap-style preemption. SwapOut snapshots
// a victim's cached rows (all layers, bit-exact); SwapIn restores them into
// freshly allocated device pages. Capacity is counted in pages of the same
// `page_tokens` granularity as the device pool; `max_host_pages == 0` leaves
// the tier unbounded. The engine charges transfer time against the device's
// host link from the bytes() actually moved.
//
// Every swapped (layer, page)-sized span carries an FNV-1a checksum computed
// at SwapOut. SwapIn re-verifies before restoring: a mismatch (bit rot in
// host memory, a torn transfer) restores nothing, drops the entry, and
// returns false so the engine can fall back to recompute instead of serving
// corrupt KV state.
class HostSwapTier {
 public:
  HostSwapTier(int64_t layers, int64_t hidden, int64_t page_tokens,
               int64_t max_host_pages);

  // Whether a swap-out of `tokens` more slots fits the host budget.
  bool CanHold(int64_t tokens) const;

  // Copies rows [0, tokens) of every layer out of the cache, checksumming
  // each page-sized span. The caller still owns (and typically frees) the
  // device pages afterwards.
  void SwapOut(int64_t seq_id, const PagedKvCache& cache, int64_t tokens);

  // Restores the stashed rows into `cache` (the caller Extended `seq_id` to
  // at least Tokens(seq_id) slots first) and drops the host copy. Returns
  // false — restoring nothing, entry dropped, corruption counted — when any
  // span fails its checksum; the sequence must then be recomputed.
  bool SwapIn(int64_t seq_id, PagedKvCache& cache);

  // Discards the stashed entry (cancel of a swapped-out victim). Returns
  // false when no entry exists (idempotent).
  bool Drop(int64_t seq_id);

  // Fault injection: flips one bit of the stashed payload (position chosen
  // deterministically from `salt`) *without* updating the checksums — the
  // next SwapIn must detect it. False when no entry exists.
  bool CorruptEntry(int64_t seq_id, uint64_t salt);

  // Checksum mismatches detected across all SwapIn calls (monotone).
  int64_t corruptions_detected() const { return corruptions_detected_; }

  bool Has(int64_t seq_id) const { return entries_.count(seq_id) != 0; }
  int64_t Tokens(int64_t seq_id) const;
  // Bytes one transfer of `tokens` rows moves across the host link.
  int64_t BytesForTokens(int64_t tokens) const {
    return tokens * hidden_ * layers_ * static_cast<int64_t>(sizeof(float));
  }
  int64_t used_pages() const { return used_pages_; }
  int64_t max_pages() const { return max_pages_; }
  int64_t entries() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Entry {
    int64_t tokens = 0;
    std::vector<std::vector<float>> rows;  // per layer: tokens * hidden
    // checksums[layer][page]: FNV-1a over that page-sized span of rows.
    std::vector<std::vector<uint64_t>> checksums;
  };

  int64_t layers_ = 0;
  int64_t hidden_ = 0;
  int64_t page_tokens_ = 16;
  int64_t max_pages_ = 0;  // 0 = unbounded
  int64_t used_pages_ = 0;
  int64_t corruptions_detected_ = 0;
  std::map<int64_t, Entry> entries_;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_KV_CACHE_H_
