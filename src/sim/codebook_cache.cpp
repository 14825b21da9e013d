#include "sim/codebook_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/rng.h"
#include "graph/algorithms.h"

namespace nb {

namespace {

// Fired after a successful miss-build, before the entry joins the LRU —
// models an insert that fails once the expensive work is already done (the
// built codebook must be released cleanly; ASan pins that).
NB_FAILPOINT_DEFINE(fp_cache_insert, "cache.insert");
// Fired before each LRU eviction (count- or byte-pressure).
NB_FAILPOINT_DEFINE(fp_cache_evict, "cache.evict");

}  // namespace

std::uint64_t CodebookCache::graph_digest(const Graph& graph) {
    std::uint64_t h = 0x67726170685f6469ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        const auto neighbors = graph.neighbors(v);
        mix(neighbors.size());
        for (const auto u : neighbors) {
            mix(u);
        }
    }
    return h;
}

std::uint64_t CodebookCache::graph_digest2(const Graph& graph) {
    // Independent seed and a different mixing schedule (per-node degree
    // salt, edge endpoints folded with their positions) so no single-digest
    // collision class survives both digests.
    std::uint64_t h = 0x6e625f6772646732ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ mix64(value)); };
    mix(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        const auto neighbors = graph.neighbors(v);
        mix((static_cast<std::uint64_t>(v) << 32) | neighbors.size());
        std::uint64_t i = 0;
        for (const auto u : neighbors) {
            mix(u + (++i << 40));
        }
    }
    return h;
}

SimulationParams CodebookCache::canonical_params(const SimulationParams& params) {
    SimulationParams canonical = params;
    canonical.epsilon = 0.0;  // decoder thresholds live in the transport, not the codebook
    canonical.channel.reset();
    canonical.threads = 1;
    return canonical;
}

std::uint64_t CodebookCache::Key::hash() const {
    std::uint64_t h = 0x636f6465626f6f6bULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(graph_digest);
    mix(graph_digest2);
    mix(shard_digest);
    mix(node_count);
    mix(message_bits);
    mix(c_eps);
    mix(code_seed);
    mix(transport_seed);
    mix(decoy_count);
    mix(bitslice_min_candidates);
    mix(static_cast<std::uint64_t>(dictionary));
    return h;
}

std::uint64_t CodebookCache::key_digest(const Graph& graph, const SimulationParams& params) {
    return make_key(graph, params).hash();
}

CodebookCache::Key CodebookCache::make_key(const Graph& graph,
                                           const SimulationParams& params,
                                           std::uint64_t shard_digest) {
    Key key;
    key.graph_digest = graph_digest(graph);
    key.graph_digest2 = graph_digest2(graph);
    key.shard_digest = shard_digest;
    key.node_count = graph.node_count();
    key.message_bits = params.message_bits;
    key.c_eps = params.c_eps;
    key.code_seed = params.code_seed;
    key.transport_seed = params.transport_seed;
    key.decoy_count = params.decoy_count;
    key.bitslice_min_candidates = params.bitslice_min_candidates;
    key.dictionary = params.dictionary;
    return key;
}

std::size_t SharedCodebook::memory_bytes() const {
    std::size_t bytes = (graph_.node_count() + 1) * sizeof(std::size_t);  // offsets
    for (NodeId v = 0; v < graph_.node_count(); ++v) {
        bytes += graph_.neighbors(v).size() * sizeof(NodeId);
    }
    return bytes + codebook_.memory_bytes();
}

CodebookCache::CodebookCache(std::size_t shard_count, std::size_t shard_capacity,
                             std::size_t max_bytes)
    : shard_capacity_(std::max<std::size_t>(1, shard_capacity)),
      shard_byte_cap_(max_bytes / std::max<std::size_t>(1, shard_count)),
      coloring_capacity_(std::max<std::size_t>(1, shard_count * shard_capacity)) {
    shards_.reserve(std::max<std::size_t>(1, shard_count));
    for (std::size_t i = 0; i < std::max<std::size_t>(1, shard_count); ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

CodebookCache& CodebookCache::instance() {
    static CodebookCache cache(8, 8, [] {
        if (const char* env = std::getenv("NB_CACHE_BYTES")) {
            char* end = nullptr;
            const unsigned long long v = std::strtoull(env, &end, 10);
            if (end != env && *end == '\0') {
                return static_cast<std::size_t>(v);
            }
            std::fprintf(stderr, "nb: ignoring malformed NB_CACHE_BYTES '%s'\n", env);
        }
        return default_max_bytes;
    }());
    return cache;
}

std::shared_ptr<const SharedCodebook> CodebookCache::acquire(
    const Graph& graph, const SimulationParams& params) {
    return acquire_impl(graph, params, nullptr);
}

std::shared_ptr<const SharedCodebook> CodebookCache::acquire(
    const Graph& graph, const SimulationParams& params, const Codebook::ShardView& view) {
    return acquire_impl(graph, params, &view);
}

std::shared_ptr<const SharedCodebook> CodebookCache::acquire_impl(
    const Graph& graph, const SimulationParams& params, const Codebook::ShardView* view) {
    const Key key = make_key(graph, params, view != nullptr ? view->digest() : 0);
    Shard& shard = *shards_[key.hash() % shards_.size()];

    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
        if (it->key == key) {
            ++shard.hits;
            shard.lru.splice(shard.lru.begin(), shard.lru, it);
            return shard.lru.front().codebook;
        }
    }

    // Miss: build while holding the shard lock, so a concurrent lookup of
    // the same key waits here and then hits — exactly-once construction.
    // The build counter moves *after* construction: a build that throws
    // (allocation failure, injected fault) did not produce a cached
    // codebook, and a retried job must observe the same counters as a
    // never-failed one.
    const std::shared_ptr<const SharedCodebook> built =
        view != nullptr
            ? std::make_shared<const SharedCodebook>(graph, canonical_params(params), *view)
            : std::make_shared<const SharedCodebook>(graph, canonical_params(params));
    ++shard.builds;

    const std::size_t entry_bytes = built->memory_bytes();
    if (shard_byte_cap_ != 0 && entry_bytes > shard_byte_cap_) {
        // Graceful degradation: one codebook bigger than the shard's whole
        // byte budget is handed to the caller uncached instead of flushing
        // the shard (or failing). The caller's shared_ptr keeps it alive.
        ++shard.oversize_uncached;
        return built;
    }

    fp_cache_insert.check();
    shard.lru.push_front(Entry{key, built, entry_bytes});
    shard.bytes += entry_bytes;
    while (shard.lru.size() > shard_capacity_) {
        fp_cache_evict.check();
        shard.bytes -= shard.lru.back().bytes;
        shard.lru.pop_back();
        ++shard.evictions;
    }
    while (shard_byte_cap_ != 0 && shard.bytes > shard_byte_cap_ && shard.lru.size() > 1) {
        fp_cache_evict.check();
        shard.bytes -= shard.lru.back().bytes;
        shard.lru.pop_back();
        ++shard.evictions_capacity;
    }
    return built;
}

std::vector<std::size_t> CodebookCache::coloring(const Graph& graph) {
    const std::uint64_t digest = graph_digest(graph);
    const std::uint64_t digest2 = graph_digest2(graph);

    std::lock_guard<std::mutex> lock(coloring_mutex_);
    for (auto it = colorings_.begin(); it != colorings_.end(); ++it) {
        if (it->digest == digest && it->digest2 == digest2) {
            ++coloring_hits_;
            colorings_.splice(colorings_.begin(), colorings_, it);
            return colorings_.front().colors;
        }
    }

    ++coloring_builds_;
    ColoringEntry entry;
    entry.digest = digest;
    entry.digest2 = digest2;
    entry.colors = greedy_distance2_coloring(graph);
    colorings_.push_front(std::move(entry));
    while (colorings_.size() > coloring_capacity_) {
        colorings_.pop_back();
        ++coloring_evictions_;
    }
    return colorings_.front().colors;
}

CodebookCache::Stats CodebookCache::stats() const {
    // All locks are taken before any counter is read — always in shard order
    // then the coloring lock, and nothing in this class acquires two of these
    // locks in any other order, so the nested acquisition cannot deadlock.
    // Locking one shard at a time would let a lookup that completes between
    // two shard reads appear in neither (or a build in one shard pair with
    // its hit missing), which is exactly the skew a concurrent server's
    // hit-rate report must not have.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size() + 1);
    for (const auto& shard : shards_) {
        locks.emplace_back(shard->mutex);
    }
    locks.emplace_back(coloring_mutex_);

    Stats total;
    for (const auto& shard : shards_) {
        total.hits += shard->hits;
        total.builds += shard->builds;
        total.evictions += shard->evictions;
        total.evictions_capacity += shard->evictions_capacity;
        total.bytes_resident += shard->bytes;
        total.oversize_uncached += shard->oversize_uncached;
    }
    total.coloring_hits = coloring_hits_;
    total.coloring_builds = coloring_builds_;
    total.coloring_evictions = coloring_evictions_;
    return total;
}

void CodebookCache::clear() {
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->lru.clear();
        shard->bytes = 0;
        shard->hits = 0;
        shard->builds = 0;
        shard->evictions = 0;
        shard->evictions_capacity = 0;
        shard->oversize_uncached = 0;
    }
    std::lock_guard<std::mutex> lock(coloring_mutex_);
    colorings_.clear();
    coloring_hits_ = 0;
    coloring_builds_ = 0;
    coloring_evictions_ = 0;
}

}  // namespace nb
