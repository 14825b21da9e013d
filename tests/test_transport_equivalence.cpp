// Transport equivalence: the codebook-cached, thread-pooled simulate_round
// must be a pure refactor of the original implementation. Every scenario
// here is pinned against 64-bit fingerprints captured from the pre-refactor
// (seed) BeepTransport on the same inputs — across both dictionary
// policies, with and without a FaultModel — and the outputs must not depend
// on the shard or worker-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>

#include "alloc_hooks.h"
#include "baselines/tdma_transport.h"
#include "common/bitslice.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/word_soa.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport.h"
#include "transport_goldens.h"

namespace nb {

// Names the policy in test output (and so in the ctest name of each
// SameNonceRebuild instance) instead of its raw bytes; found by ADL.
void PrintTo(DictionaryPolicy policy, std::ostream* os) {
    *os << (policy == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes");
}

namespace {

using namespace golden;

void expect_equal_rounds(const TransportRound& a, const TransportRound& b) {
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.beep_rounds, b.beep_rounds);
    EXPECT_EQ(a.total_beeps, b.total_beeps);
    EXPECT_EQ(a.phase1_false_negatives, b.phase1_false_negatives);
    EXPECT_EQ(a.phase1_false_positives, b.phase1_false_positives);
    EXPECT_EQ(a.phase2_errors, b.phase2_errors);
    EXPECT_EQ(a.delivery_mismatches, b.delivery_mismatches);
    EXPECT_EQ(a.perfect, b.perfect);
}

// Captured on the seed implementation with the fixture goldens
// (transport_goldens.h).
constexpr std::uint64_t kGoldenNoiseless = 0x4c90d81a92c67923ULL;

class TransportEquivalence : public ::testing::Test {
protected:
    TransportEquivalence() : graph_(make_graph()), messages_(make_messages(graph_, 10, 1234)) {
        faults_.jammers = {3};
        faults_.crashed = {7, 11};
    }

    static Graph make_graph() {
        Rng rng(42);
        return make_erdos_renyi(32, 0.18, rng);
    }

    Graph graph_;
    std::vector<std::optional<Bitstring>> messages_;
    FaultModel faults_;
};

TEST_F(TransportEquivalence, MatchesSeedTwoHop) {
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(TransportEquivalence, MatchesSeedAllNodes) {
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::all_nodes));
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
}

TEST_F(TransportEquivalence, MatchesSeedNoiseless) {
    Rng rng(7);
    const Graph g = make_random_regular(20, 4, rng);
    const auto messages = make_messages(g, 8, 99, /*silent_fraction=*/0.0);
    SimulationParams params;
    params.epsilon = 0.0;
    params.message_bits = 8;
    params.c_eps = 4;
    params.threads = 1;
    const BeepTransport transport(g, params);
    EXPECT_EQ(fingerprint(transport.simulate_round(messages, 5)), kGoldenNoiseless);
}

TEST_F(TransportEquivalence, BatchedRoundsMatchGoldenFingerprints) {
    // simulate_rounds with batch size 3 must reproduce the seed-pinned
    // fingerprints exactly, for both policies, with and without faults, at
    // every shard and worker count (each round built, exchanged and decoded
    // per shard on the pool). all_nodes candidate sets are not local, so
    // that policy clamps every request to the one-shard plan.
    for (const std::size_t shards : {1, 2, 4, 8}) {
        for (const std::size_t threads : {1, 2, 8}) {
            SCOPED_TRACE(::testing::Message() << "shards=" << shards << " threads=" << threads);
            const BeepTransport two_hop(graph_, noisy_params(DictionaryPolicy::two_hop, threads),
                                        shards);
            EXPECT_EQ(two_hop.shard_count(), shards);
            EXPECT_EQ(batched_fingerprint(two_hop, messages_, FaultModel{}), kGoldenTwoHopPlain);
            EXPECT_EQ(batched_fingerprint(two_hop, messages_, faults_), kGoldenTwoHopFaults);
            const BeepTransport all_nodes(
                graph_, noisy_params(DictionaryPolicy::all_nodes, threads), shards);
            EXPECT_EQ(all_nodes.shard_count(), 1u);
            EXPECT_EQ(batched_fingerprint(all_nodes, messages_, FaultModel{}),
                      kGoldenAllNodesPlain);
            EXPECT_EQ(batched_fingerprint(all_nodes, messages_, faults_), kGoldenAllNodesFaults);
        }
    }
}

TEST_F(TransportEquivalence, BitslicedDecoderMatchesGoldenFingerprints) {
    // Forcing the bitsliced phase-1 kernel below its size crossover must
    // not change a single output bit: the goldens pin the bitsliced decode
    // end to end (single and batched paths, at every worker count).
    for (const std::size_t threads : {1, 2, 8}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        SimulationParams params = noisy_params(DictionaryPolicy::all_nodes, threads);
        params.bitslice_min_candidates = 0;
        const BeepTransport transport(graph_, params);
        EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenAllNodesPlain);
        EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
        EXPECT_EQ(batched_fingerprint(transport, messages_, FaultModel{}),
                  kGoldenAllNodesPlain);
        EXPECT_EQ(batched_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
    }
}

TEST_F(TransportEquivalence, ExplicitIidChannelMatchesGoldenFingerprints) {
    // Carrying the channel as an explicit ChannelModel::iid instead of the
    // legacy epsilon-only configuration must not change a single bit: the
    // ChannelModel refactor is golden-pinned for the paper's channel.
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.channel = ChannelModel::iid(params.epsilon);
    const BeepTransport transport(graph_, params);
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(TransportEquivalence, NullMessagesAreRejectedPerSpec) {
    // RoundSpec::messages is a non-owning pointer; both transports must
    // require() it non-null per spec instead of dereferencing.
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    const RoundSpec good{&messages_, 0, nullptr};
    const RoundSpec null_spec{nullptr, 1, nullptr};
    const std::vector<RoundSpec> specs{good, null_spec};
    EXPECT_THROW(transport.simulate_rounds(specs), precondition_error);

    TdmaParams tdma_params;
    tdma_params.message_bits = 10;
    const TdmaTransport tdma(graph_, tdma_params);
    EXPECT_THROW(tdma.simulate_rounds({&null_spec, 1}), precondition_error);
}

TEST_F(TransportEquivalence, BatchSizeOneMatchesSimulateRound) {
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport transport(graph_, noisy_params(policy));
        const RoundSpec spec{&messages_, 7, &faults_};
        const auto batched = transport.simulate_rounds({&spec, 1});
        ASSERT_EQ(batched.size(), 1u);
        expect_equal_rounds(batched.front(), transport.simulate_round(messages_, 7, faults_));
    }
}

TEST_F(TransportEquivalence, BatchedThreadCountDoesNotChangeOutputs) {
    // The batch at threads > 1 (each round built, then decoded, on the
    // 4-worker pool) must agree round-for-round with the serial batch.
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport serial(graph_, noisy_params(policy, 1));
        const BeepTransport threaded(graph_, noisy_params(policy, 4));
        std::vector<RoundSpec> specs;
        for (std::uint64_t nonce = 0; nonce < 4; ++nonce) {
            specs.push_back(RoundSpec{&messages_, nonce, nonce % 2 == 0 ? nullptr : &faults_});
        }
        const auto serial_rounds = serial.simulate_rounds(specs);
        const auto threaded_rounds = threaded.simulate_rounds(specs);
        ASSERT_EQ(serial_rounds.size(), threaded_rounds.size());
        for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
            expect_equal_rounds(serial_rounds[i], threaded_rounds[i]);
        }
    }
}

TEST_F(TransportEquivalence, ThreadCountDoesNotChangeOutputs) {
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport serial(graph_, noisy_params(policy, 1));
        const BeepTransport threaded(graph_, noisy_params(policy, 4));
        for (std::uint64_t nonce = 0; nonce < 2; ++nonce) {
            expect_equal_rounds(serial.simulate_round(messages_, nonce),
                                threaded.simulate_round(messages_, nonce));
            expect_equal_rounds(serial.simulate_round(messages_, nonce, faults_),
                                threaded.simulate_round(messages_, nonce, faults_));
        }
    }
}

TEST_F(TransportEquivalence, SharedCodebookCacheMatchesGoldenFingerprints) {
    // With the process-wide CodebookCache enabled (the default), every seed
    // fingerprint is unchanged, and two transports agreeing on the
    // codebook-relevant parameters decode through the same Codebook object
    // even when they disagree on thread count.
    CodebookCache::instance().clear();
    const BeepTransport two_hop(graph_, noisy_params(DictionaryPolicy::two_hop, 1));
    const BeepTransport two_hop_threaded(graph_, noisy_params(DictionaryPolicy::two_hop, 4));
    EXPECT_EQ(&two_hop.codebook(), &two_hop_threaded.codebook());
    EXPECT_EQ(run_fingerprint(two_hop, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(two_hop_threaded, messages_, faults_), kGoldenTwoHopFaults);

    const BeepTransport all_nodes(graph_, noisy_params(DictionaryPolicy::all_nodes));
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, faults_), kGoldenAllNodesFaults);

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.builds, 2u);  // one per dictionary policy
    EXPECT_EQ(stats.hits, 1u);    // the threaded two_hop transport
}

TEST_F(TransportEquivalence, PrivateCodebookMatchesGoldenFingerprints) {
    // A transport whose codebook is a fresh build (empty cache, so this
    // transport's acquire builds it) decodes to the same goldens as one
    // served a cache hit.
    CodebookCache::instance().clear();
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(TransportEquivalence, CodesAndCodewordsBuiltOncePerRound) {
    // The batch that decodes a round owns it: a reused batch rebuilds its
    // round only when the (codebook, messages, nonce) key changes, and a
    // fault model is not part of that key. A shared codebook's counters
    // aggregate every transport on its cache entry; an empty cache makes
    // this transport the entry's only user.
    CodebookCache::instance().clear();
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    const std::size_t n = graph_.node_count();
    const std::size_t decoys = transport.params().decoy_count;

    auto stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);   // built in the constructor
    EXPECT_EQ(stats.round_builds, 0u);  // no round simulated yet

    // (m, 0), (m, 0) and (m, 0, faults) through one batch: one build.
    TransportBatch batch;
    const std::vector<RoundSpec> same_round = {
        {&messages_, 0, nullptr}, {&messages_, 0, nullptr}, {&messages_, 0, &faults_}};
    transport.simulate_rounds_into(same_round, batch);
    stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);
    EXPECT_EQ(stats.round_builds, 1u);
    EXPECT_EQ(stats.codeword_builds, n + decoys);
    EXPECT_EQ(stats.payload_encodes, n + 1 + decoys);

    // A fresh nonce is a new round: exactly one more rebuild.
    const RoundSpec next{&messages_, 1, nullptr};
    transport.simulate_rounds_into({&next, 1}, batch);
    stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);
    EXPECT_EQ(stats.round_builds, 2u);
    EXPECT_EQ(stats.codeword_builds, 2 * (n + decoys));
    EXPECT_EQ(stats.payload_encodes, 2 * (n + 1 + decoys));

    // The memoised rounds decode exactly as fresh batches do.
    transport.simulate_rounds_into(same_round, batch);
    expect_equal_rounds(batch.to_round(1), transport.simulate_round(messages_, 0));
    expect_equal_rounds(batch.to_round(2), transport.simulate_round(messages_, 0, faults_));
}

void expect_equal_slices(const BitsliceMatrix& a, const BitsliceMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.columns(), b.columns());
    ASSERT_EQ(a.lane_words(), b.lane_words());
    for (std::size_t p = 0; p < a.rows(); ++p) {
        EXPECT_TRUE(std::ranges::equal(a.row(p), b.row(p))) << "row " << p;
    }
    for (std::size_t c = 0; c < a.columns(); ++c) {
        EXPECT_EQ(a.column_weight(c), b.column_weight(c)) << "column " << c;
    }
}

void expect_equal_soa(const WordSoa& a, const WordSoa& b) {
    ASSERT_EQ(a.count(), b.count());
    ASSERT_EQ(a.stride(), b.stride());
    ASSERT_EQ(a.words(), b.words());
    ASSERT_EQ(a.bits(), b.bits());
    const std::size_t size = a.words() * a.stride();
    EXPECT_TRUE(std::equal(a.data(), a.data() + size, b.data()));
}

/// Every field of two rounds, bitslice planes and SoA words included.
void expect_equal_round_fields(const Codebook::Round& a, const Codebook::Round& b) {
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.payloads, b.payloads);
    EXPECT_EQ(a.codewords, b.codewords);
    EXPECT_EQ(a.one_positions, b.one_positions);
    EXPECT_EQ(a.decoy_inputs, b.decoy_inputs);
    EXPECT_EQ(a.decoy_codewords, b.decoy_codewords);
    EXPECT_EQ(a.decoy_one_positions, b.decoy_one_positions);
    EXPECT_EQ(a.candidate_messages, b.candidate_messages);
    EXPECT_EQ(a.candidate_encoded, b.candidate_encoded);
    EXPECT_EQ(a.candidate_tails, b.candidate_tails);
    EXPECT_EQ(a.decode_gaps, b.decode_gaps);
    EXPECT_EQ(a.combined_schedules, b.combined_schedules);
    EXPECT_EQ(a.phase1_beeps, b.phase1_beeps);
    EXPECT_EQ(a.phase2_beeps, b.phase2_beeps);
    EXPECT_EQ(a.nonce, b.nonce);
    EXPECT_EQ(a.messages, b.messages);
    expect_equal_slices(a.codeword_slices, b.codeword_slices);
    expect_equal_soa(a.candidate_encoded_soa, b.candidate_encoded_soa);
}

/// Rebuild `reused` in place through `book` and compare it field by field
/// with a fresh book.round() of the same key. The caller has already built
/// `reused` from other messages and another nonce.
void expect_in_place_rebuild_matches_fresh(const Codebook& book, Codebook::Round& reused,
                                           const std::vector<std::optional<Bitstring>>& messages,
                                           std::uint64_t nonce) {
    const std::size_t builds_before = book.stats().round_builds;
    book.build_round(reused, messages, nonce);
    EXPECT_EQ(book.stats().round_builds, builds_before + 1);
    expect_equal_round_fields(reused, *book.round(messages, nonce));
}

TEST(CodebookInPlaceRound, TwoHopRebuildMatchesFreshFieldByField) {
    // The reused Round was last built by an all_nodes codebook with the
    // bitslice matrix, SoA dictionary and decode gaps: a two_hop rebuild
    // must empty all three.
    Rng rng(0x61);
    const Graph graph = make_random_regular(80, 6, rng);
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.decoy_count = 5;
    SimulationParams sliced_params = params;
    sliced_params.dictionary = DictionaryPolicy::all_nodes;
    sliced_params.bitslice_min_candidates = 64;
    const Codebook sliced(graph, sliced_params);
    const Codebook book(graph, params);

    Codebook::Round reused;
    sliced.build_round(reused, make_messages(graph, params.message_bits, 31), 9);
    ASSERT_FALSE(reused.codeword_slices.empty());
    ASSERT_FALSE(reused.decode_gaps.empty());
    expect_in_place_rebuild_matches_fresh(book, reused,
                                          make_messages(graph, params.message_bits, 32), 4);
    EXPECT_TRUE(reused.codeword_slices.empty());
    EXPECT_TRUE(reused.candidate_encoded_soa.empty());
    EXPECT_TRUE(reused.decode_gaps.empty());
}

TEST(CodebookInPlaceRound, AllNodesSlicedRebuildMatchesFreshFieldByField) {
    Rng rng(0x62);
    const Graph graph = make_random_regular(72, 4, rng);
    SimulationParams params = noisy_params(DictionaryPolicy::all_nodes);
    params.decoy_count = 4;
    // Low enough that this 76-candidate entry space builds the slices and
    // the SoA dictionary.
    params.bitslice_min_candidates = 64;
    const Codebook book(graph, params);

    Codebook::Round reused;
    book.build_round(reused, make_messages(graph, params.message_bits, 33), 2);
    expect_in_place_rebuild_matches_fresh(book, reused,
                                          make_messages(graph, params.message_bits, 34), 3);
    EXPECT_FALSE(reused.codeword_slices.empty());
    EXPECT_FALSE(reused.candidate_encoded_soa.empty());
}

TEST(CodebookInPlaceRound, ShardViewRebuildMatchesFreshFieldByField) {
    // A middle shard whose halo slots hold what a transport imported into
    // them: the rebuild must empty the halo again, like a fresh build.
    Rng rng(0x63);
    const Graph graph = make_random_regular(240, 4, rng);
    const ShardPlan plan = make_shard_plan(graph, 3);
    const ShardPlan::Shard& shard = plan.shards[1];
    ASSERT_GT(shard.owned_begin, 0u);
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.decoy_count = 3;
    Codebook::ShardView view;
    view.global_ids = shard.local_to_global;
    view.owned_begin = shard.owned_begin;
    view.owned_count = shard.owned_count;
    view.global_node_count = graph.node_count();
    view.global_max_degree = graph.max_degree();
    const Codebook book(shard.local, params, std::move(view));

    auto local_messages = [&](std::uint64_t seed) {
        const auto global = make_messages(graph, params.message_bits, seed);
        std::vector<std::optional<Bitstring>> local;
        for (const auto g : shard.local_to_global) {
            local.push_back(global[g]);
        }
        return local;
    };
    Codebook::Round reused;
    book.build_round(reused, local_messages(35), 6);
    for (const auto& imp : shard.imports) {
        reused.codewords[imp.local] = ~Bitstring(book.beep_length());
        reused.one_positions[imp.local] = {0, 1, 2};
        reused.combined_schedules[imp.local] = ~Bitstring(book.beep_length());
    }
    expect_in_place_rebuild_matches_fresh(book, reused, local_messages(36), 7);
}

TEST(CodebookRoundBuild, FreshNonceRebuildAllocatesNothing) {
    // build_round's in-place contract on the path real workloads take:
    // every round has a new nonce and new message contents, so the Round is
    // rebuilt, never kept. Once warm, a rebuild reuses every slot's storage
    // and allocates nothing, for a whole-graph two_hop codebook, for a shard
    // view and for a sliced all_nodes codebook, at one worker and at four
    // (where the worker that writes each slot changes from build to build).
    Rng rng(0x66);
    const Graph graph = make_random_regular(96, 6, rng);
    const Graph ring = make_ring(240);
    const ShardPlan plan = make_shard_plan(ring, 4);
    const ShardPlan::Shard& shard = plan.shards[1];
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.decoy_count = 4;
    Codebook::ShardView view;
    view.global_ids = shard.local_to_global;
    view.owned_begin = shard.owned_begin;
    view.owned_count = shard.owned_count;
    view.global_node_count = ring.node_count();
    view.global_max_degree = ring.max_degree();
    const Codebook whole(graph, params);
    const Codebook shard_book(shard.local, params, std::move(view));

    for (const std::size_t threads : {1, 4}) {
        ThreadPool pool(threads);
        for (const Codebook* book : {&whole, &shard_book}) {
            SCOPED_TRACE(::testing::Message() << (book == &whole ? "two_hop" : "shard view")
                                              << " threads=" << threads);
            // One message set per build: the same silent nodes, new bits.
            const auto base = make_messages(book->graph(), params.message_bits, 39);
            std::vector<std::vector<std::optional<Bitstring>>> per_round(6, base);
            for (std::size_t i = 0; i < per_round.size(); ++i) {
                for (auto& message : per_round[i]) {
                    if (message.has_value()) {
                        message->flip(i % params.message_bits);
                    }
                }
            }
            Codebook::Round round;
            book->build_round(round, per_round[0], 100, &pool);
            book->build_round(round, per_round[1], 101, &pool);
            const std::uint64_t before = alloc_hooks::count();
            for (std::size_t i = 2; i < per_round.size(); ++i) {
                book->build_round(round, per_round[i], 100 + i, &pool);
            }
            EXPECT_EQ(alloc_hooks::count() - before, 0u) << "a warm rebuild allocated";
            expect_equal_round_fields(round, *book->round(per_round.back(), 105));
        }

        // all_nodes with the bitslice matrix and the decode gaps: a fixed
        // message set, so the node-payload gap block is cached after the
        // first build and each rebuild recomputes only the nonce-keyed rest.
        SCOPED_TRACE(::testing::Message() << "all_nodes threads=" << threads);
        SimulationParams sliced = noisy_params(DictionaryPolicy::all_nodes);
        sliced.decoy_count = 4;
        sliced.bitslice_min_candidates = 64;
        const Codebook all_nodes(graph, sliced);
        const auto messages = make_messages(graph, sliced.message_bits, 40);
        Codebook::Round round;
        all_nodes.build_round(round, messages, 100, &pool);
        all_nodes.build_round(round, messages, 101, &pool);
        ASSERT_FALSE(round.codeword_slices.empty());
        ASSERT_FALSE(round.decode_gaps.empty());
        const std::uint64_t before = alloc_hooks::count();
        for (std::uint64_t nonce = 102; nonce < 106; ++nonce) {
            all_nodes.build_round(round, messages, nonce, &pool);
        }
        EXPECT_EQ(alloc_hooks::count() - before, 0u) << "a warm all_nodes rebuild allocated";
        expect_equal_round_fields(round, *all_nodes.round(messages, 105));
    }
}

TEST(TransportBatchMemo, TransportsWithDifferentCodebooksShareOneBatch) {
    // One batch, used in turn by three transports whose codebooks differ,
    // all on the same (messages, nonce): each round must be rebuilt for its
    // own codebook and equal that transport's fresh-batch result. The
    // all_nodes codes are seeded differently, so a round built by another
    // codebook would decode differently, not just more slowly.
    Rng rng(0x64);
    const Graph graph = make_random_regular(96, 4, rng);
    const auto messages = make_messages(graph, 10, 37);
    SimulationParams sliced = noisy_params(DictionaryPolicy::all_nodes);
    sliced.bitslice_min_candidates = 64;
    sliced.code_seed ^= 0x5eed;
    const BeepTransport two_hop(graph, noisy_params(DictionaryPolicy::two_hop));
    const BeepTransport all_nodes(graph, sliced);
    const BeepTransport sharded(graph, noisy_params(DictionaryPolicy::two_hop), 3);
    ASSERT_EQ(sharded.shard_count(), 3u);

    TransportBatch batch;
    const RoundSpec spec{&messages, 5, nullptr};
    for (const BeepTransport* transport :
         {&two_hop, &all_nodes, &sharded, &two_hop, &sharded, &all_nodes}) {
        SCOPED_TRACE(::testing::Message() << "shards=" << transport->shard_count());
        transport->simulate_rounds_into({&spec, 1}, batch);
        expect_equal_rounds(batch.to_round(0), transport->simulate_round(messages, 5));
    }
}

TEST(TransportBatchMemo, CodebookBuiltAfterTheOldOneDiedIsNotAliased) {
    // The batch keys its round by the codebook that built it. After that
    // transport and its cache entry are gone, a transport with different
    // codes on the same (messages, nonce) must still get its own round.
    Rng rng(0x65);
    const Graph graph = make_random_regular(64, 4, rng);
    const auto messages = make_messages(graph, 10, 38);
    const RoundSpec spec{&messages, 2, nullptr};
    TransportBatch batch;
    CodebookCache::instance().clear();
    {
        const BeepTransport first(graph, noisy_params(DictionaryPolicy::two_hop));
        first.simulate_rounds_into({&spec, 1}, batch);
    }
    CodebookCache::instance().clear();
    SimulationParams other = noisy_params(DictionaryPolicy::two_hop);
    other.code_seed ^= 0x5eed;
    const BeepTransport second(graph, other);
    second.simulate_rounds_into({&spec, 1}, batch);
    expect_equal_rounds(batch.to_round(0), second.simulate_round(messages, 2));
}

class SameNonceRebuild : public ::testing::TestWithParam<DictionaryPolicy> {};

TEST_P(SameNonceRebuild, MatchesFreshCodebookFieldByField) {
    // A codebook that already built round(A, k) rebuilds round(B, k) from
    // scratch: the result must equal a fresh codebook's round(B, k) in every
    // field, and cost the full n + decoys codewords again.
    Rng rng(0x31);
    const std::size_t n = 64;
    const Graph graph = make_random_regular(n, 6, rng);
    SimulationParams params;
    params.message_bits = 8;
    params.c_eps = 4;
    params.decoy_count = 4;
    params.dictionary = GetParam();
    // Low enough that all_nodes builds the bitslice matrix and the SoA
    // dictionary for this 68-candidate entry space.
    params.bitslice_min_candidates = 64;
    const Codebook book(graph, params);

    auto messages_a = make_messages(graph, params.message_bits, 1, /*silent_fraction=*/0.0);
    auto messages_b = messages_a;
    messages_b[10] = Bitstring::random(rng, params.message_bits);  // one changed
    messages_b[11].reset();                                        // one went silent

    const std::uint64_t nonce = 7;
    (void)book.round(messages_a, nonce);
    const std::size_t codewords_after_first = book.stats().codeword_builds;
    const auto rebuilt = book.round(messages_b, nonce);

    // Reference: a codebook that never saw messages_a.
    const Codebook fresh(graph, params);
    const auto reference = fresh.round(messages_b, nonce);

    expect_equal_round_fields(*rebuilt, *reference);
    const bool sliced = GetParam() == DictionaryPolicy::all_nodes;
    EXPECT_EQ(rebuilt->codeword_slices.empty(), !sliced);
    EXPECT_EQ(rebuilt->candidate_encoded_soa.empty(), !sliced);
    EXPECT_EQ(rebuilt->decode_gaps.empty(), !sliced);

    EXPECT_EQ(book.stats().codeword_builds, codewords_after_first + n + params.decoy_count);
}

INSTANTIATE_TEST_SUITE_P(Policies, SameNonceRebuild,
                         ::testing::Values(DictionaryPolicy::two_hop,
                                           DictionaryPolicy::all_nodes));

/// Builds the same round with no pool and on pools of 2 and 8 workers, each
/// through a fresh codebook from `make_book`: every field must match the
/// serial build. Two nonces per codebook, so the second build runs on a
/// pool that has already run jobs.
template <typename MakeBook>
void expect_pooled_builds_match(const MakeBook& make_book,
                                const std::vector<std::optional<Bitstring>>& messages) {
    constexpr std::uint64_t nonces[] = {3, 4};
    const std::unique_ptr<Codebook> serial_book = make_book();
    std::vector<std::shared_ptr<const Codebook::Round>> serial;
    for (const auto nonce : nonces) {
        serial.push_back(serial_book->round(messages, nonce));
    }
    for (const std::size_t workers : {2, 8}) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        ThreadPool pool(workers);
        const std::unique_ptr<Codebook> pooled_book = make_book();
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expect_equal_round_fields(*pooled_book->round(messages, nonces[i], &pool),
                                      *serial[i]);
        }
        EXPECT_EQ(pooled_book->stats().codeword_builds, serial_book->stats().codeword_builds);
        EXPECT_EQ(pooled_book->stats().payload_encodes, serial_book->stats().payload_encodes);
    }
}

TEST(CodebookPooledRound, TwoHopMatchesSerialFieldByField) {
    Rng rng(0x51);
    const Graph graph = make_random_regular(300, 6, rng);
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.decoy_count = 9;
    const auto messages = make_messages(graph, params.message_bits, 21);
    expect_pooled_builds_match([&] { return std::make_unique<Codebook>(graph, params); },
                               messages);
}

TEST(CodebookPooledRound, AllNodesSlicedMatchesSerialFieldByField) {
    // n + decoys above the default bitslice crossover: the pooled build
    // feeds the transposed matrix, the SoA dictionary and the decode gaps.
    Rng rng(0x52);
    const Graph graph = make_random_regular(520, 4, rng);
    SimulationParams params = noisy_params(DictionaryPolicy::all_nodes);
    params.decoy_count = 5;
    ASSERT_GE(graph.node_count() + params.decoy_count, params.bitslice_min_candidates);
    const auto messages = make_messages(graph, params.message_bits, 22);
    expect_pooled_builds_match([&] { return std::make_unique<Codebook>(graph, params); },
                               messages);
    const auto round = Codebook(graph, params).round(messages, 3);
    EXPECT_FALSE(round->codeword_slices.empty());
    EXPECT_FALSE(round->candidate_encoded_soa.empty());
}

TEST(CodebookPooledRound, ShardViewMatchesSerialFieldByField) {
    // A middle shard: owned range preceded and followed by halo slots, which
    // the pooled build must leave empty exactly like the serial one.
    Rng rng(0x53);
    const Graph graph = make_random_regular(240, 4, rng);
    const ShardPlan plan = make_shard_plan(graph, 3);
    const ShardPlan::Shard& shard = plan.shards[1];
    ASSERT_GT(shard.owned_begin, 0u);
    ASSERT_LT(shard.owned_begin + shard.owned_count, shard.local_to_global.size());
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.decoy_count = 6;
    const auto global_messages = make_messages(graph, params.message_bits, 23);
    std::vector<std::optional<Bitstring>> messages;
    for (const auto g : shard.local_to_global) {
        messages.push_back(global_messages[g]);
    }
    expect_pooled_builds_match(
        [&] {
            Codebook::ShardView view;
            view.global_ids = shard.local_to_global;
            view.owned_begin = shard.owned_begin;
            view.owned_count = shard.owned_count;
            view.global_node_count = graph.node_count();
            view.global_max_degree = graph.max_degree();
            return std::make_unique<Codebook>(shard.local, params, std::move(view));
        },
        messages);
}

TEST(TdmaEquivalence, ThreadCountDoesNotChangeOutputs) {
    Rng rng(11);
    const Graph g = make_erdos_renyi(24, 0.2, rng);
    const auto messages = make_messages(g, 8, 5);
    TdmaParams serial_params;
    serial_params.epsilon = 0.1;
    serial_params.message_bits = 8;
    serial_params.repetitions = 9;
    serial_params.threads = 1;
    TdmaParams threaded_params = serial_params;
    threaded_params.threads = 4;
    const TdmaTransport serial(g, serial_params);
    const TdmaTransport threaded(g, threaded_params);
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        expect_equal_rounds(serial.simulate_round(messages, nonce),
                            threaded.simulate_round(messages, nonce));
    }
}

TEST(TdmaEquivalence, BatchedRoundsMatchSingleRounds) {
    Rng rng(12);
    const Graph g = make_erdos_renyi(20, 0.25, rng);
    const auto messages = make_messages(g, 8, 17);
    TdmaParams params;
    params.epsilon = 0.1;
    params.message_bits = 8;
    params.repetitions = 7;
    params.threads = 1;
    const TdmaTransport transport(g, params);
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }
    const auto batched = transport.simulate_rounds(specs);
    ASSERT_EQ(batched.size(), specs.size());
    for (std::uint64_t nonce = 0; nonce < specs.size(); ++nonce) {
        expect_equal_rounds(batched[nonce], transport.simulate_round(messages, nonce));
    }
    FaultModel faults;
    faults.jammers = {1};
    const RoundSpec faulty{&messages, 0, &faults};
    EXPECT_THROW(transport.simulate_rounds({&faulty, 1}), precondition_error);
}

TEST(TdmaTransportBatch, RepacksSchedulesWhenMessagesChange) {
    // One batch whose messages go m1, m1, m2, m1: each round must match a
    // single round on a fresh transport, so a batch that reused m1's packed
    // schedules for m2 (or m2's for the last m1) would deliver the wrong
    // messages.
    Rng rng(13);
    const Graph g = make_erdos_renyi(20, 0.25, rng);
    const auto m1 = make_messages(g, 8, 21);
    const auto m2 = make_messages(g, 8, 22);
    ASSERT_NE(m1, m2);
    TdmaParams params;
    params.epsilon = 0.1;
    params.message_bits = 8;
    params.repetitions = 7;
    const std::vector<RoundSpec> specs{
        {&m1, 0, nullptr}, {&m1, 1, nullptr}, {&m2, 2, nullptr}, {&m1, 3, nullptr}};
    const auto batched = TdmaTransport(g, params).simulate_rounds(specs);
    ASSERT_EQ(batched.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "spec=" << i);
        const TdmaTransport fresh(g, params);
        expect_equal_rounds(batched[i], fresh.simulate_round(*specs[i].messages, specs[i].nonce));
    }
}

}  // namespace
}  // namespace nb
