// Seed-pinned outputs of the two callers the differential and equivalence
// suites leave unpinned: the TDMA baseline transport (iid and
// Gilbert-Elliott channels, single rounds and a batch whose messages go
// m1, m1, m2, m1) and a noisy BroadcastCongestOverBeeps matching run whose
// rounds misdeliver. The values were captured before the transports moved
// onto one round entry point; any output change in the round path fails
// here at every worker count.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "apps/matching.h"
#include "baselines/tdma_transport.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "sim/broadcast_congest_sim.h"
#include "transport_goldens.h"

namespace nb {
namespace {

using golden::fingerprint;
using golden::make_messages;

/// The TDMA fixture: a 40-node Erdos-Renyi graph (Rng 0x7d, p = 0.15), 12-bit
/// messages, majority over only 3 repetitions at design epsilon 0.1, so some
/// rounds misdeliver and the digest covers the mismatch path too.
TdmaParams tdma_params(std::size_t threads, bool gilbert_elliott) {
    TdmaParams params;
    params.epsilon = 0.1;
    params.message_bits = 12;
    params.repetitions = 3;
    params.threads = threads;
    if (gilbert_elliott) {
        params.channel = ChannelModel::gilbert_elliott(0.05, 0.3, 0.02, 0.3);
    }
    return params;
}

struct TdmaDigests {
    std::uint64_t single = 0;   ///< nonces 0..2, one simulate_round each
    std::uint64_t batched = 0;  ///< one batch: m1, m1, m2, m1 at nonces 3..6
    std::size_t mismatches = 0; ///< summed over every round digested
};

TdmaDigests tdma_digests(std::size_t threads, bool gilbert_elliott) {
    Rng rng(0x7d);
    const Graph graph = make_erdos_renyi(40, 0.15, rng);
    const auto m1 = make_messages(graph, 12, 51);
    const auto m2 = make_messages(graph, 12, 52);
    const TdmaTransport transport(graph, tdma_params(threads, gilbert_elliott));
    TdmaDigests out;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        const TransportRound round = transport.simulate_round(m1, nonce);
        out.single = mix64(out.single ^ fingerprint(round));
        out.mismatches += round.delivery_mismatches;
    }
    const std::vector<RoundSpec> specs{
        {&m1, 3, nullptr}, {&m1, 4, nullptr}, {&m2, 5, nullptr}, {&m1, 6, nullptr}};
    for (const auto& round : transport.simulate_rounds(specs)) {
        out.batched = mix64(out.batched ^ fingerprint(round));
        out.mismatches += round.delivery_mismatches;
    }
    return out;
}

TEST(TdmaGolden, IidChannelMatchesPinnedDigests) {
    for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        const TdmaDigests d = tdma_digests(threads, false);
        EXPECT_EQ(d.single, 0xf238fb04f3f29a34ULL);
        EXPECT_EQ(d.batched, 0xac3c9a4c6feb1613ULL);
        EXPECT_GT(d.mismatches, 0u);
    }
}

TEST(TdmaGolden, GilbertElliottChannelMatchesPinnedDigests) {
    for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        const TdmaDigests d = tdma_digests(threads, true);
        EXPECT_EQ(d.single, 0x1ad4c81fdbdc6d49ULL);
        EXPECT_EQ(d.batched, 0x858480dc5709a42bULL);
        EXPECT_GT(d.mismatches, 0u);
    }
}

TEST(BroadcastCongestGolden, NoisyMatchingRunMatchesPinnedStats) {
    // A matching run over Algorithm 1 at c_eps = 3 and epsilon = 0.39: 10 of
    // its 13 simulated rounds misdeliver, which the differential tests skip.
    Rng rng(0x4d);
    const Graph graph = make_random_regular(48, 4, rng);
    const std::size_t width = MatchingAlgorithm::required_message_bits(graph.node_count());
    for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        SimulationParams params;
        params.epsilon = 0.39;
        params.message_bits = width;
        params.c_eps = 3;
        params.threads = threads;
        BroadcastCongestOverBeeps engine(graph, params, CongestParams{width, 61});
        auto nodes = make_matching_nodes(graph);
        const SimulatedRunStats stats = engine.run(nodes, matching_rounds_for_iterations(60));
        std::uint64_t partners = 0;
        for (const auto& out : collect_matching_outputs(nodes)) {
            partners = mix64(partners ^ (out.partner.has_value() ? *out.partner + 1 : 0));
        }
        EXPECT_EQ(stats.congest_rounds, 13u);
        EXPECT_EQ(stats.beep_rounds, 221130u);
        EXPECT_EQ(stats.total_beeps, 526439u);
        EXPECT_EQ(stats.imperfect_rounds, 10u);
        EXPECT_EQ(stats.phase1_false_negatives, 10u);
        EXPECT_EQ(stats.phase1_false_positives, 0u);
        EXPECT_EQ(stats.phase2_errors, 32u);
        EXPECT_TRUE(stats.all_finished);
        EXPECT_EQ(partners, 0x9e2f9af02e1fabfdULL);
    }
}

}  // namespace
}  // namespace nb
