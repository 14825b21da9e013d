// Sharded-transport exactness and resilience: BeepTransport plans of k > 1
// shards must reproduce the seed-era golden fingerprints round by round
// (the batched shard x thread grid lives in test_transport_equivalence.cpp),
// reuse their batch scratch exactly, stay invariant at the scenario level,
// and unwind cleanly when the boundary-exchange failpoint fires — which it
// never does on a one-shard plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "scenarios/registry.h"
#include "scenarios/scenario.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport.h"
#include "transport_goldens.h"

namespace nb {
namespace {

using namespace golden;

std::string result_json(const ScenarioResult& result) {
    std::ostringstream out;
    JsonWriter json(out);
    scenario_result_json(json, result, /*include_timing=*/false);
    return out.str();
}

class ShardedTransportTest : public ::testing::Test {
protected:
    ShardedTransportTest()
        : graph_(make_graph()), messages_(make_messages(graph_, 10, 1234)) {
        faults_.jammers = {3};
        faults_.crashed = {7, 11};
        CodebookCache::instance().clear();
    }

    ~ShardedTransportTest() override { failpoint::clear_all(); }

    static Graph make_graph() {
        Rng rng(42);
        return make_erdos_renyi(32, 0.18, rng);
    }

    Graph graph_;
    std::vector<std::optional<Bitstring>> messages_;
    FaultModel faults_;
};

TEST(ShardPlan, PartitionCoversAndClosureAdjacencyIsExact) {
    Rng rng(7);
    const Graph graph = make_erdos_renyi(48, 0.12, rng);
    const ShardPlan plan = make_shard_plan(graph, 5);
    ASSERT_EQ(plan.shard_count(), 5u);

    std::vector<int> owner_seen(graph.node_count(), 0);
    for (std::size_t s = 0; s < plan.shard_count(); ++s) {
        const ShardPlan::Shard& shard = plan.shards[s];
        for (std::uint32_t i = 0; i < shard.owned_count; ++i) {
            const std::uint32_t local = shard.owned_begin + i;
            const NodeId global = shard.local_to_global[local];
            EXPECT_EQ(global, shard.owned_first + i);
            EXPECT_EQ(plan.owner(global), s);
            ++owner_seen[global];
        }
        // The induced local graph must reproduce the global adjacency
        // exactly for every owned node and its one-hop halo (what phase-1
        // superimposition and the two-hop candidate sets read).
        for (std::uint32_t i = 0; i < shard.owned_count; ++i) {
            const std::uint32_t lv = shard.owned_begin + i;
            const NodeId gv = shard.local_to_global[lv];
            std::vector<NodeId> local_mapped;
            for (const NodeId lu : shard.local.neighbors(lv)) {
                local_mapped.push_back(shard.local_to_global[lu]);
            }
            std::vector<NodeId> global_neighbors(graph.neighbors(gv).begin(),
                                                 graph.neighbors(gv).end());
            std::sort(local_mapped.begin(), local_mapped.end());
            std::sort(global_neighbors.begin(), global_neighbors.end());
            EXPECT_EQ(local_mapped, global_neighbors) << "node " << gv;
        }
        // Every import names a row its source shard actually exports, and
        // the row resolves to the same global id.
        for (const ShardPlan::Import& imp : shard.imports) {
            ASSERT_LT(imp.src_shard, plan.shard_count());
            const ShardPlan::Shard& src = plan.shards[imp.src_shard];
            ASSERT_LT(imp.src_row, src.exports.size());
            EXPECT_EQ(src.local_to_global[src.exports[imp.src_row]],
                      shard.local_to_global[imp.local]);
        }
    }
    for (const int count : owner_seen) {
        EXPECT_EQ(count, 1);  // ownership partitions the node set
    }
}

TEST_F(ShardedTransportTest, GoldenFingerprintsForEveryShardAndWorkerCount) {
    // One simulate_round call per nonce (the batched path is pinned in
    // TransportEquivalence) at every shard and worker count.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            SCOPED_TRACE(::testing::Message() << "shards=" << shards << " threads=" << threads);
            const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop, threads),
                                          shards);
            EXPECT_EQ(transport.shard_count(), shards);
            EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
            EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
        }
    }
}

TEST_F(ShardedTransportTest, PrivateCodebooksMatchSharedCacheBuilds) {
    // Each shard's cached codebook is bit-identical to a shard-view build
    // made directly from the same plan, outside the cache.
    const SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    const BeepTransport transport(graph_, params, 4);
    const ShardPlan plan = make_shard_plan(graph_, 4);
    ASSERT_EQ(transport.shard_count(), plan.shards.size());
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
        SCOPED_TRACE(::testing::Message() << "shard=" << s);
        const ShardPlan::Shard& sh = plan.shards[s];
        Codebook::ShardView view;
        view.global_ids = sh.local_to_global;
        view.owned_begin = sh.owned_begin;
        view.owned_count = sh.owned_count;
        view.global_node_count = graph_.node_count();
        view.global_max_degree = graph_.max_degree();
        const Codebook reference(sh.local, params, std::move(view));
        EXPECT_EQ(transport.codebook(s).fingerprint(), reference.fingerprint());
    }
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(ShardedTransportTest, ReusedBatchStaysIdenticalAcrossCalls) {
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop), 3);
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages_, nonce, &faults_});
    }
    TransportBatch batch;
    transport.simulate_rounds_into(specs, batch);
    std::uint64_t first = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        first = mix64(first ^ fingerprint(batch.to_round(i)));
    }
    // Second pass through the same warm batch: scratch, arenas, and the
    // boundary table are reused; outputs must not change.
    transport.simulate_rounds_into(specs, batch);
    std::uint64_t second = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        second = mix64(second ^ fingerprint(batch.to_round(i)));
    }
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, run_fingerprint(transport, messages_, faults_));
}

TEST_F(ShardedTransportTest, AllNodesDictionaryDelegatesToUnsharded) {
    // all_nodes candidate sets are not local, so a sharded request clamps
    // to the one-shard plan and runs exactly as the unsharded transport.
    const SimulationParams params = noisy_params(DictionaryPolicy::all_nodes);
    const BeepTransport sharded(graph_, params, 4);
    EXPECT_EQ(sharded.shard_count(), 1u);
    const BeepTransport unsharded(graph_, params);
    for (std::uint64_t nonce = 0; nonce < 2; ++nonce) {
        EXPECT_EQ(fingerprint(sharded.simulate_round(messages_, nonce)),
                  fingerprint(unsharded.simulate_round(messages_, nonce)));
    }
    EXPECT_EQ(sharded.rounds_per_broadcast_round(), unsharded.rounds_per_broadcast_round());
}

TEST_F(ShardedTransportTest, ShippedBeepSpecsAreShardInvariant) {
    // Every shipped beep spec (the two-hop ones the sharded transport
    // actually partitions) must serialize to byte-identical canonical JSON
    // at shard counts 1, 2, and 8 — the scenario-level statement of the
    // bit-identity contract, faults and non-iid channels included.
    for (const ScenarioSpec& shipped : scenarios::shipped_scenarios()) {
        if (shipped.transport != TransportKind::beep ||
            shipped.dictionary != DictionaryPolicy::two_hop) {
            continue;
        }
        SCOPED_TRACE(shipped.name);
        ScenarioSpec spec = shipped;
        spec.shards = 1;
        const std::string reference = result_json(run_scenario(spec));
        for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
            spec.shards = shards;
            EXPECT_EQ(result_json(run_scenario(spec)), reference)
                << "shards=" << shards;
        }
    }
}

TEST_F(ShardedTransportTest, SpecFingerprintIgnoresShardCount) {
    // The journal contract: shard count, like the thread count, must not
    // invalidate resume.
    ScenarioSpec spec = scenarios::shipped_scenarios().front();
    const std::uint64_t reference = scenario_spec_fingerprint(spec);
    spec.shards = 8;
    EXPECT_EQ(scenario_spec_fingerprint(spec), reference);
    spec.threads = 4;
    EXPECT_EQ(scenario_spec_fingerprint(spec), reference);
}

TEST_F(ShardedTransportTest, ExchangeFailpointUnwindsAndHeals) {
    for (const std::size_t shards : {1, 2}) {
        SCOPED_TRACE(::testing::Message() << "shards=" << shards);
        const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop), shards);
        for (const failpoint::Mode mode :
             {failpoint::Mode::inject_throw, failpoint::Mode::oom}) {
            SCOPED_TRACE(mode == failpoint::Mode::oom ? "oom" : "throw");
            failpoint::Config config;
            config.mode = mode;
            config.max_hits = 1;
            failpoint::configure("shard.exchange", config);
            if (shards == 1) {
                // A one-shard plan has no exchange: armed, it runs clean.
                EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}),
                          kGoldenTwoHopPlain);
                EXPECT_EQ(failpoint::hits("shard.exchange"), 0u);
            } else if (mode == failpoint::Mode::inject_throw) {
                EXPECT_THROW(transport.simulate_round(messages_, 0),
                             failpoint::injected_fault);
            } else {
                EXPECT_THROW(transport.simulate_round(messages_, 0), std::bad_alloc);
            }
            failpoint::clear("shard.exchange");
            // Healed: the transport is still usable and still exact.
            EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
        }
    }
}

TEST_F(ShardedTransportTest, DemoShard100kRunsEndToEnd) {
    const ScenarioSpec* demo = scenarios::find_scenario("demo-shard-100k");
    ASSERT_NE(demo, nullptr);
    EXPECT_EQ(demo->shards, 8u);
    const ScenarioResult result = run_scenario(*demo);
    EXPECT_EQ(result.node_count, 100000u);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.max_degree, 2u);  // ring
    EXPECT_GT(result.beep_rounds_per_round, 0u);
    EXPECT_GT(result.total_beeps, 0u);
}

}  // namespace
}  // namespace nb
