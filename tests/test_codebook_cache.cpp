// Property tests for the process-wide CodebookCache (sim/codebook_cache.h):
// a cache hit must be bit-identical to a fresh private build for every
// shipped registry spec and for thread counts 1/2/8, and the counters must
// pin exactly-once construction across a multi-seed sweep.
//
// Tests clear() the cache up front so the counter assertions hold whether
// the binary runs one test per process (ctest) or all in one (bare
// nb_tests).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "scenarios/registry.h"
#include "scenarios/sweep.h"
#include "sim/codebook_cache.h"
#include "sim/transport.h"

namespace nb {
namespace {

TEST(CodebookCacheProperty, HitIsBitIdenticalToFreshBuildForEveryShippedSpec) {
    CodebookCache::instance().clear();
    for (const auto& spec : scenarios::shipped_scenarios()) {
        SCOPED_TRACE(spec.name);
        const Graph graph = spec.topology.build();

        if (spec.transport == TransportKind::tdma) {
            // The baseline's cached artifact is the G^2 coloring.
            const TdmaTransport cached(graph, spec.tdma_params(graph.node_count()));
            EXPECT_EQ(cached.colors(), greedy_distance2_coloring(graph));
            continue;
        }

        // A fresh build outside the cache is the reference.
        const std::uint64_t expected = Codebook(graph, spec.sim_params()).fingerprint();

        // Cache-enabled transports at thread counts 1/2/8 must all decode
        // through a codebook with the reference fingerprint — and through
        // ONE shared object, since threads are not part of the cache key.
        const Codebook* shared = nullptr;
        for (const std::size_t threads : {1u, 2u, 8u}) {
            SimulationParams params = spec.sim_params();
            params.threads = threads;
            const BeepTransport transport(graph, params);
            EXPECT_EQ(transport.codebook().fingerprint(), expected);
            if (shared == nullptr) {
                shared = &transport.codebook();
            } else {
                EXPECT_EQ(shared, &transport.codebook());
            }
        }
    }
}

TEST(CodebookCacheProperty, ThreeSeedSweepBuildsEachCodebookExactlyOnce) {
    CodebookCache::instance().clear();

    SweepSpec sweep;
    sweep.name = "one-spec-three-seeds";
    sweep.bases = {*scenarios::find_scenario("e11-eps0.10-c4")};
    sweep.axes.seeds = {1, 2, 3};
    const SweepResult result = run_sweep(sweep);

    ASSERT_EQ(result.jobs, 3u);
    // All three jobs share one topology and one set of code parameters
    // (only the workload seed differs), so the sweep builds the codebook
    // exactly once and the other two jobs hit.
    EXPECT_EQ(result.cache.builds, 1u);
    EXPECT_EQ(result.cache.hits, 2u);
}

TEST(CodebookCacheProperty, DistinctParametersGetDistinctCodebooks) {
    CodebookCache::instance().clear();
    const Graph graph = scenarios::find_scenario("e11-eps0.10-c4")->topology.build();

    SimulationParams a;
    a.message_bits = 6;
    a.c_eps = 4;
    SimulationParams b = a;
    b.c_eps = 6;  // different code geometry -> different key
    SimulationParams c = a;
    c.epsilon = 0.3;  // NOT part of the key -> shares with a

    const BeepTransport ta(graph, a);
    const BeepTransport tb(graph, b);
    const BeepTransport tc(graph, c);
    EXPECT_NE(&ta.codebook(), &tb.codebook());
    EXPECT_NE(ta.codebook().fingerprint(), tb.codebook().fingerprint());
    EXPECT_EQ(&ta.codebook(), &tc.codebook());

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(CodebookCacheProperty, EqualStructureDifferentGraphObjectsShareOneBuild) {
    CodebookCache::instance().clear();
    const TopologySpec topology = scenarios::find_scenario("ge-burst")->topology;
    const Graph g1 = topology.build();
    const Graph g2 = topology.build();  // distinct object, equal adjacency

    SimulationParams params;
    params.message_bits = 6;
    params.c_eps = 4;
    const BeepTransport t1(g1, params);
    const BeepTransport t2(g2, params);
    EXPECT_EQ(&t1.codebook(), &t2.codebook());
    EXPECT_EQ(CodebookCache::instance().stats().builds, 1u);

    // The cached codebook owns its own graph copy: it must reference
    // neither caller's graph.
    EXPECT_NE(&t1.codebook().graph(), &g1);
    EXPECT_NE(&t1.codebook().graph(), &g2);
}

TEST(CodebookCacheProperty, ClearResetsCountersAndDropsEntries) {
    CodebookCache& cache = CodebookCache::instance();
    cache.clear();
    const Graph graph = scenarios::find_scenario("ge-burst")->topology.build();
    SimulationParams params;
    params.message_bits = 6;
    const BeepTransport transport(graph, params);
    EXPECT_EQ(cache.stats().builds, 1u);

    cache.clear();
    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.hits, 0u);

    // The evicted-but-held codebook stays alive through the transport's
    // shared_ptr; a new transport rebuilds rather than hitting.
    const BeepTransport rebuilt(graph, params);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_NE(&rebuilt.codebook(), &transport.codebook());
    EXPECT_EQ(rebuilt.codebook().fingerprint(), transport.codebook().fingerprint());
}

TEST(CodebookCacheProperty, StatsSnapshotIsConsistentAndExposesHitRate) {
    CodebookCache& cache = CodebookCache::instance();
    cache.clear();
    EXPECT_EQ(cache.stats().hit_rate(), 0.0);  // no lookups: defined as 0

    const Graph graph = scenarios::find_scenario("ge-burst")->topology.build();
    SimulationParams a;
    a.message_bits = 6;
    SimulationParams b = a;
    b.c_eps = 6;
    const BeepTransport build_a(graph, a);
    const BeepTransport build_b(graph, b);
    const BeepTransport hit_a(graph, a);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);

    // stats() takes every shard lock plus the coloring lock simultaneously —
    // a consistent snapshot by construction. Hammer it from one thread while
    // others acquire concurrently: every snapshot must be internally sane
    // (lookups never run backwards between snapshots, rate stays in [0, 1]),
    // and the nested locking must not deadlock against in-flight builds.
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::uint64_t last_lookups = 0;
        while (!stop.load()) {
            const auto snapshot = cache.stats();
            const std::uint64_t lookups = snapshot.hits + snapshot.builds;
            EXPECT_GE(lookups, last_lookups);
            EXPECT_GE(snapshot.hit_rate(), 0.0);
            EXPECT_LE(snapshot.hit_rate(), 1.0);
            last_lookups = lookups;
        }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            SimulationParams params;
            params.message_bits = 6;
            params.c_eps = 4 + static_cast<std::size_t>(w % 2) * 2;
            for (int i = 0; i < 50; ++i) {
                const BeepTransport transport(graph, params);
            }
        });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    stop.store(true);
    reader.join();
}

TEST(CodebookCacheProperty, ColoringCacheServesTdmaTransports) {
    CodebookCache::instance().clear();
    const Graph graph = scenarios::find_scenario("e5-delta8-tdma")->topology.build();
    TdmaParams params;
    params.message_bits = 8;

    const TdmaTransport first(graph, params);
    const TdmaTransport second(graph, params);
    EXPECT_EQ(first.colors(), second.colors());

    EXPECT_EQ(first.colors(), greedy_distance2_coloring(graph));

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.coloring_builds, 1u);
    EXPECT_EQ(stats.coloring_hits, 1u);
}

/// Three cache keys over one graph that differ only in the code seed, so
/// their byte-accounted footprints are equal: the probe's memory_bytes()
/// sizes every cap below.
class CodebookCacheBounded : public ::testing::Test {
protected:
    CodebookCacheBounded() : graph_(scenarios::find_scenario("ge-burst")->topology.build()) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            params_[i].message_bits = 6;
            params_[i].c_eps = 4;
            params_[i].code_seed += i;
        }
        entry_bytes_ = SharedCodebook(graph_, params_[0]).memory_bytes();
    }

    Graph graph_;
    SimulationParams params_[3];
    std::size_t entry_bytes_ = 0;
};

TEST_F(CodebookCacheBounded, CountCapacityEvictsLeastRecentlyUsed) {
    CodebookCache cache(1, 2, 0);  // two entries, no byte cap
    const auto a = cache.acquire(graph_, params_[0]);
    cache.acquire(graph_, params_[1]);
    EXPECT_EQ(cache.acquire(graph_, params_[0]), a);  // hit; b is now the LRU entry
    cache.acquire(graph_, params_[2]);                // evicts b
    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 3u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 1u);

    EXPECT_EQ(cache.acquire(graph_, params_[0]), a);  // a survived
    cache.acquire(graph_, params_[1]);                // b rebuilds, evicting c
    stats = cache.stats();
    EXPECT_EQ(stats.builds, 4u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.evictions_capacity, 0u);
    EXPECT_EQ(stats.bytes_resident, 2 * entry_bytes_);
}

TEST_F(CodebookCacheBounded, ByteCapEvictsTheLeastRecentlyUsedEntry) {
    CodebookCache cache(1, 2, entry_bytes_ + entry_bytes_ / 2);  // one entry fits, two do not
    cache.acquire(graph_, params_[0]);
    EXPECT_EQ(cache.stats().bytes_resident, entry_bytes_);
    const auto b = cache.acquire(graph_, params_[1]);  // over the cap: a goes
    auto stats = cache.stats();
    EXPECT_EQ(stats.evictions_capacity, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.bytes_resident, entry_bytes_);

    EXPECT_EQ(cache.acquire(graph_, params_[1]), b);  // b is resident
    cache.acquire(graph_, params_[0]);                // a rebuilds, b goes
    stats = cache.stats();
    EXPECT_EQ(stats.builds, 3u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions_capacity, 2u);
    EXPECT_EQ(stats.bytes_resident, entry_bytes_);
    EXPECT_EQ(stats.oversize_uncached, 0u);
}

TEST_F(CodebookCacheBounded, OversizeEntryIsServedUncached) {
    CodebookCache cache(1, 2, entry_bytes_ - 1);  // not even one entry fits
    const auto first = cache.acquire(graph_, params_[0]);
    const auto second = cache.acquire(graph_, params_[0]);  // builds again
    EXPECT_NE(first, second);
    EXPECT_EQ(first->codebook().fingerprint(), second->codebook().fingerprint());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.oversize_uncached, 2u);
    EXPECT_EQ(stats.bytes_resident, 0u);
    EXPECT_EQ(stats.evictions + stats.evictions_capacity, 0u);
}

}  // namespace
}  // namespace nb
