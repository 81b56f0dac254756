// Radix-tree prefix cache over the paged KV allocator (SGLang-style).
//
// The reproduction has no token vocabulary — requests carry input embeddings
// directly — so prefixes are content-addressed: a chained FNV-1a hash over
// each input row's raw bytes identifies the prefix [0..i] bit-exactly (a hash
// at position i commits to every earlier row, so two sequences agree on a
// chained hash iff their inputs agree bitwise on the whole prefix).
//
// Tree shape: every node owns exactly one physical page and covers the token
// range [begin, begin + valid) with begin % page_tokens == 0 and
// valid <= page_tokens. Nodes with valid < page_tokens (partially filled
// pages) are always leaves; matching descends only through exactly-full,
// fully-matched nodes. Siblings may overlap in content (a short partial
// donation and a later longer one coexist) — the match walk picks the
// longest-matching child, first wins ties, so lookups stay deterministic.
//
// Ownership: each node Retains its page against the KvPageAllocator; a
// matched path is mapped into a new sequence with CreateMapped (another
// reference per page). Because a sequence only ever maps pages along one
// root-to-node path, a node whose page refcount is 1 (tree-only) can never
// sit above a node whose page is still mapped — evicting least-recently-used
// refcount-1 leaves (ReclaimOne) therefore reaches every reclaimable page.
//
// Cached payload: alongside the KV pages the node keeps the *output* rows for
// its token range, so a session admitted with a cache hit can replay the
// client-visible rows it will never compute. Under top-k routing a row's
// forward depends only on its own prefix, making the replay bit-lossless.
//
// Engine thread only; no internal locking.

#ifndef SAMOYEDS_SRC_SERVING_PREFIX_CACHE_H_
#define SAMOYEDS_SRC_SERVING_PREFIX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/serving/kv_cache.h"
#include "src/tensor/matrix.h"

namespace samoyeds {
namespace serving {

// hashes[i] = chained FNV-1a 64-bit hash over the raw bytes of rows [0..i] of
// `inputs` (rows i in [0, rows)).
std::vector<uint64_t> ChainedRowHashes(const MatrixF& inputs, int64_t rows);

class PrefixCache {
 public:
  PrefixCache(int64_t page_tokens, int64_t hidden);

  struct Match {
    int64_t tokens = 0;             // matched prefix length
    std::vector<int32_t> pages;     // path pages, PagesForTokens(tokens) of them
    std::vector<float> out_rows;    // tokens * hidden replayed output rows
  };

  // Longest cached prefix of rows [0, max_tokens) of `inputs`, without
  // touching LRU state — what admission control sizes its hint from. With
  // `alloc`/`shared_path_pages` given, also counts the path pages some live
  // sequence already maps (refcount >= 2): those are the only pages admission
  // may discount. Path pages held by the tree alone are excluded — mapping
  // them pins otherwise-reclaimable pages, costing the pool as much as a
  // fresh allocation.
  int64_t ProbeTokens(const MatrixF& inputs, int64_t max_tokens,
                      const KvPageAllocator* alloc = nullptr,
                      int64_t* shared_path_pages = nullptr) const;

  // Longest cached prefix plus the pages and output rows to reuse; bumps LRU
  // along the path. The caller maps `pages` into the new sequence with
  // CreateMapped(seq, pages, tokens).
  Match Acquire(const MatrixF& inputs, int64_t max_tokens);

  // Adopts the first `tokens` consumed rows of a finished/preempted sequence
  // into the tree: pages past the already-cached aligned prefix are retained
  // by new nodes, together with their hashes and `out_rows` (tokens * hidden).
  // The donor must still own its page table (call before Free(seq_id)).
  void Donate(int64_t seq_id, const MatrixF& inputs, int64_t tokens,
              const std::vector<float>& out_rows, KvPageAllocator& alloc);

  // Evicts the least-recently-used leaf whose page has no holder besides the
  // tree (refcount 1), releasing the page to the free list. Returns false
  // when every leaf is still mapped by a live sequence (nothing reclaimable).
  bool ReclaimOne(KvPageAllocator& alloc);

  // Pages the tree could hand back through repeated ReclaimOne calls — nodes
  // whose page refcount is 1. Exact: refcount-1 nodes are downward-closed
  // (see header comment), so leaf-only eviction reaches all of them.
  int64_t reclaimable_pages(const KvPageAllocator& alloc) const;

  int64_t nodes() const { return nodes_; }
  // Pages currently retained by tree nodes (== nodes(): one page per node).
  int64_t retained_pages() const { return nodes_; }
  int64_t hits() const { return hits_; }
  int64_t hit_tokens() const { return hit_tokens_; }
  int64_t evictions() const { return evictions_; }

 private:
  struct Node {
    int32_t page = -1;               // physical page this node retains
    int64_t begin = 0;               // token offset of the page (multiple of pt)
    int64_t valid = 0;               // filled rows in [1, page_tokens]
    int64_t lru = 0;                 // last Acquire/Donate touch
    std::vector<uint64_t> hashes;    // hashes[i] covers rows [0 .. begin+i]
    std::vector<float> out_rows;     // valid * hidden cached output rows
    std::vector<std::unique_ptr<Node>> children;
  };

  // Shared match walk: longest cached prefix of `query`; fills `path` with
  // the nodes along it (full nodes plus at most one trailing partial match).
  int64_t Walk(const std::vector<uint64_t>& query, std::vector<Node*>* path) const;

  int64_t page_tokens_;
  int64_t hidden_;
  int64_t clock_ = 0;    // LRU timestamps (bumped per Acquire/Donate)
  int64_t nodes_ = 0;
  int64_t hits_ = 0;
  int64_t hit_tokens_ = 0;
  int64_t evictions_ = 0;
  std::unique_ptr<Node> root_;  // sentinel: page -1, valid 0
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_PREFIX_CACHE_H_
