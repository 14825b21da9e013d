// SIMD dispatch layer: every kernel table must compute bit-identical
// results (common/simd/simd.h's dispatch contract). The property tests
// force scalar vs AVX2 vs AVX-512 on randomized inputs — including the tail
// shapes a lane-width bug would miss (word counts off the vector width,
// candidate counts off the 64/256 lane boundaries, zero-weight columns,
// limit 0, limit above the weight) — and the transport goldens
// (transport_goldens.h) are re-pinned under every forced kernel.
// The batch ring (sim/transport_batch.h) is covered here too: reuse
// equivalence and the steady-state zero-allocation contract.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "alloc_hooks.h"
#include "baselines/tdma_transport.h"
#include "common/aligned.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/word_soa.h"
#include "graph/generators.h"
#include "sim/params.h"
#include "sim/transport.h"
#include "transport_goldens.h"

namespace nb {
namespace {

/// Kernels this build + CPU can actually run (scalar always; the forced
/// comparisons silently shrink to what the machine offers, and the CI
/// matrix covers the rest).
std::vector<simd::Kernel> supported_kernels() {
    std::vector<simd::Kernel> kernels;
    for (const auto k : {simd::Kernel::scalar, simd::Kernel::avx2, simd::Kernel::avx512}) {
        if (simd::kernel_supported(k)) {
            kernels.push_back(k);
        }
    }
    return kernels;
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t words) {
    std::vector<std::uint64_t> out(words);
    for (auto& w : out) {
        w = rng.next_u64();
    }
    return out;
}

TEST(SimdKernels, ScalarTableIsAlwaysSupported) {
    EXPECT_TRUE(simd::kernel_supported(simd::Kernel::scalar));
    EXPECT_TRUE(simd::kernel_supported(simd::Kernel::auto_best));
    // resolve_kernel never returns auto_best: it names the table that runs.
    const simd::Kernel resolved = simd::resolve_kernel(simd::Kernel::auto_best);
    EXPECT_NE(resolved, simd::Kernel::auto_best);
    EXPECT_TRUE(simd::kernel_supported(resolved));
    // An explicit unsupported request falls back instead of crashing.
    EXPECT_TRUE(simd::kernel_supported(simd::resolve_kernel(simd::Kernel::avx512)));
}

TEST(SimdKernels, ParseKernelRoundTrips) {
    bool ok = false;
    EXPECT_EQ(simd::parse_kernel("scalar", &ok), simd::Kernel::scalar);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("avx2", &ok), simd::Kernel::avx2);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("avx512", &ok), simd::Kernel::avx512);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("auto", &ok), simd::Kernel::auto_best);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("neon", &ok), simd::Kernel::auto_best);
    EXPECT_FALSE(ok);
    for (const auto k : supported_kernels()) {
        EXPECT_EQ(simd::parse_kernel(simd::kernel_name(k), &ok), k);
        EXPECT_TRUE(ok);
    }
}

TEST(SimdKernels, PopcountReductionsMatchScalar) {
    // Word counts chosen to straddle every vector width and block size the
    // kernels use: 4-word AVX2 strides, 8-word AVX-512 strides, and the
    // 16-word early-exit blocks — plus off-by-one tails around each.
    Rng rng(2024);
    const auto& scalar = simd::ops(simd::Kernel::scalar);
    for (const std::size_t words :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{31}, std::size_t{33}, std::size_t{100}}) {
        for (int trial = 0; trial < 8; ++trial) {
            auto a = random_words(rng, words);
            auto b = random_words(rng, words);
            if (trial == 6) {
                std::fill(a.begin(), a.end(), 0);  // zero-weight candidate
            }
            if (trial == 7) {
                b = a;  // identical strings: distance 0, missing-ones 0
            }
            const std::size_t want_and_not = scalar.and_not_count(a.data(), b.data(), words);
            const std::size_t want_hamming = scalar.hamming(a.data(), b.data(), words);
            for (const auto kernel : supported_kernels()) {
                const auto& table = simd::ops(kernel);
                EXPECT_EQ(table.and_not_count(a.data(), b.data(), words), want_and_not)
                    << table.name << " words=" << words;
                EXPECT_EQ(table.hamming(a.data(), b.data(), words), want_hamming)
                    << table.name << " words=" << words;
                // Limits across the interesting boundary: 0 (never true),
                // the exact count (false: strict inequality), count +/- 1,
                // and far above.
                for (const std::size_t limit :
                     {std::size_t{0}, std::size_t{1}, want_and_not,
                      want_and_not + 1, want_and_not + 100}) {
                    EXPECT_EQ(table.and_not_count_below(a.data(), b.data(), words, limit),
                              want_and_not < limit)
                        << table.name << " words=" << words << " limit=" << limit;
                }
            }
        }
    }
}

TEST(SimdKernels, HammingAllMatchesPerColumnScalar) {
    // Candidate counts straddling the 64-per-lane-word and 256-per-AVX2-
    // block boundaries, with zero-weight columns mixed in; bit lengths
    // putting 1..3 words per column.
    Rng rng(77);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{255}, std::size_t{257}}) {
        for (const std::size_t bits : {std::size_t{5}, std::size_t{64}, std::size_t{130}}) {
            std::vector<Bitstring> columns;
            columns.reserve(count);
            for (std::size_t c = 0; c < count; ++c) {
                columns.push_back(c % 5 == 3 ? Bitstring(bits) : Bitstring::random(rng, bits));
            }
            WordSoa soa;
            soa.build(columns);
            ASSERT_EQ(soa.count(), count);
            ASSERT_EQ(soa.stride() % 8, 0u);
            const Bitstring received = Bitstring::random(rng, bits);
            const auto& received_words = received.words();

            std::vector<std::uint32_t> want(soa.stride());
            simd::ops(simd::Kernel::scalar)
                .hamming_all(received_words.data(), soa.words(), soa.data(), soa.stride(),
                             want.data());
            // The scalar sweep itself must agree with the per-column kernels
            // and the strided single-column read.
            for (std::size_t c = 0; c < count; ++c) {
                EXPECT_EQ(want[c], received.hamming_distance(columns[c]));
                EXPECT_EQ(soa.column_distance(received_words.data(), c), want[c]);
            }
            for (const auto kernel : supported_kernels()) {
                std::vector<std::uint32_t> got(soa.stride(), 0xdeadbeef);
                simd::ops(kernel).hamming_all(received_words.data(), soa.words(), soa.data(),
                                              soa.stride(), got.data());
                EXPECT_EQ(got, want)
                    << simd::ops(kernel).name << " count=" << count << " bits=" << bits;
            }
        }
    }
}

TEST(SimdKernels, BitslicePassMatchesScalarAndPackedKernel) {
    // The full bitslice acceptance mask, per kernel, against the packed
    // per-candidate kernel it must mirror bit for bit. Column counts off
    // the 64-candidate lane boundary; transcripts include all-zeros and
    // all-ones; limits include 0 (nothing accepted) and above-the-weight
    // (everything accepted, zero-weight columns included).
    Rng rng(4242);
    for (const std::size_t columns :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{130}}) {
        const std::size_t bits = 192;
        std::vector<Bitstring> candidates;
        candidates.reserve(columns);
        for (std::size_t c = 0; c < columns; ++c) {
            candidates.push_back(c % 7 == 5 ? Bitstring(bits) : Bitstring::random(rng, bits));
        }
        const BitsliceMatrix matrix(candidates);
        for (int trial = 0; trial < 4; ++trial) {
            Bitstring transcript = Bitstring::random(rng, bits);
            if (trial == 2) {
                transcript = Bitstring(bits);  // all zeros
            } else if (trial == 3) {
                transcript = ~Bitstring(bits);  // all ones
            }
            for (const std::size_t limit :
                 {std::size_t{0}, std::size_t{1}, std::size_t{20}, bits + 1}) {
                BitsliceScratch scratch;
                std::vector<std::uint64_t> scalar_accept;
                matrix.and_not_below(transcript, limit, scratch, scalar_accept,
                                     simd::Kernel::scalar);
                for (std::size_t c = 0; c < columns; ++c) {
                    const bool bit = (scalar_accept[c / 64] >> (c % 64)) & 1;
                    EXPECT_EQ(bit, candidates[c].and_not_count_below(transcript, limit))
                        << "column " << c << " limit " << limit;
                }
                for (const auto kernel : supported_kernels()) {
                    BitsliceScratch fresh;
                    std::vector<std::uint64_t> accept;
                    matrix.and_not_below(transcript, limit, fresh, accept, kernel);
                    EXPECT_EQ(accept, scalar_accept)
                        << simd::ops(kernel).name << " columns=" << columns
                        << " limit=" << limit;
                }
            }
        }
    }
}

TEST(SimdKernels, GatherBitsMatchesPositionGatherOnEveryKernel) {
    // The word-wise PEXT gather against the position-list gather it
    // replaces on the decode path: for every kernel, every mask shape a
    // fill-buffer bug could miss — empty, single-bit, sparse, ~half-dense
    // (output words straddle input words), and all-ones (identity) — over
    // sizes off the 64-bit word boundary.
    Rng rng(7177);
    for (const std::size_t bits :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{127}, std::size_t{130}, std::size_t{300}, std::size_t{1056}}) {
        for (int shape = 0; shape < 5; ++shape) {
            Bitstring mask(bits);
            switch (shape) {
                case 0:
                    break;  // empty: gather of nothing
                case 1:
                    mask.set(bits - 1);
                    break;
                case 2:  // sparse ~10%, the codeword regime
                    for (std::size_t i = 0; i < bits; ++i) {
                        mask.set(i, rng.bernoulli(0.1));
                    }
                    break;
                case 3:
                    mask = Bitstring::random(rng, bits);  // ~half dense
                    break;
                case 4:
                    mask = ~Bitstring(bits);  // all ones: gather == copy
                    break;
            }
            const Bitstring src = Bitstring::random(rng, bits);
            Bitstring want;
            src.gather_into(mask.one_positions(), want);
            for (const auto kernel : supported_kernels()) {
                Bitstring got;
                src.gather_mask_into(mask, got, kernel);
                EXPECT_EQ(got, want) << simd::ops(kernel).name << " bits=" << bits
                                     << " shape=" << shape;
            }
        }
    }

    // The raw kernel on plain word arrays: the return value is popcount of
    // the mask (callers size the output from it), every written word matches
    // the scalar table (which compiles the software bit walk, while the
    // AVX TUs compile the PEXT path), and padding bits land as zeros.
    const auto& scalar = simd::ops(simd::Kernel::scalar);
    for (const std::size_t words : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
        for (int trial = 0; trial < 6; ++trial) {
            const auto src = random_words(rng, words);
            auto mask = random_words(rng, words);
            if (trial >= 3) {
                for (auto& m : mask) {
                    m &= rng.next_u64() & rng.next_u64();  // sparse
                }
            }
            std::size_t ones = 0;
            for (const auto m : mask) {
                ones += static_cast<std::size_t>(std::popcount(m));
            }
            std::vector<std::uint64_t> ref((ones + 63) / 64 + 1, ~std::uint64_t{0});
            EXPECT_EQ(scalar.gather_bits(src.data(), mask.data(), words, ref.data()), ones);
            for (const auto kernel : supported_kernels()) {
                std::vector<std::uint64_t> out(ref.size(), ~std::uint64_t{0});
                EXPECT_EQ(simd::ops(kernel).gather_bits(src.data(), mask.data(), words,
                                                        out.data()),
                          ones);
                EXPECT_EQ(out, ref) << simd::ops(kernel).name << " words=" << words;
            }
            if (ones % 64 != 0 && ones != 0) {
                // Assembled words carry zero padding above the packed bits.
                EXPECT_EQ(ref[ones / 64] >> (ones % 64), 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: forced dispatch must reproduce the seed-pinned transport
// goldens (transport_goldens.h) — so a kernel divergence shows up as a
// golden failure, not just a cross-kernel mismatch — and the batch ring
// must match the compatibility path while allocating nothing once warm.

using namespace golden;

SimulationParams forced_params(DictionaryPolicy policy, simd::Kernel kernel) {
    SimulationParams params = noisy_params(policy);
    params.simd_kernel = kernel;
    return params;
}

TEST(SimdTransport, ForcedKernelsReproduceGoldenFingerprints) {
    Rng rng(42);
    const Graph graph = make_erdos_renyi(32, 0.18, rng);
    const auto messages = make_messages(graph, 10, 1234);
    FaultModel faults;
    faults.jammers = {3};
    faults.crashed = {7, 11};
    for (const auto kernel : supported_kernels()) {
        SimulationParams two_hop = forced_params(DictionaryPolicy::two_hop, kernel);
        const BeepTransport sparse(graph, two_hop);
        EXPECT_EQ(run_fingerprint(sparse, messages, FaultModel{}), kGoldenTwoHopPlain)
            << simd::ops(kernel).name;

        // all_nodes below the bitslice crossover: the bitsliced phase-1 and
        // the SoA phase-2 sweep both run under the forced kernel.
        SimulationParams dense = forced_params(DictionaryPolicy::all_nodes, kernel);
        dense.bitslice_min_candidates = 0;
        const BeepTransport full(graph, dense);
        EXPECT_EQ(run_fingerprint(full, messages, FaultModel{}), kGoldenAllNodesPlain)
            << simd::ops(kernel).name;
        EXPECT_EQ(run_fingerprint(full, messages, faults), kGoldenAllNodesFaults)
            << simd::ops(kernel).name;
    }
}

TEST(TransportBatchRing, ReusedBatchMatchesSimulateRounds) {
    Rng rng(42);
    const Graph graph = make_erdos_renyi(32, 0.18, rng);
    const auto messages = make_messages(graph, 10, 1234);
    FaultModel faults;
    faults.jammers = {3};
    SimulationParams params = forced_params(DictionaryPolicy::all_nodes, simd::Kernel::auto_best);
    params.bitslice_min_candidates = 0;
    const BeepTransport transport(graph, params);

    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nonce == 1 ? &faults : nullptr});
    }
    TransportBatch batch;
    // Two passes through the same reused batch: results must be identical
    // both times (slot/arena reuse cannot leak state between batches).
    for (int pass = 0; pass < 2; ++pass) {
        transport.simulate_rounds_into(specs, batch);
        ASSERT_EQ(batch.rounds(), specs.size());
        ASSERT_EQ(batch.nodes(), graph.node_count());
        EXPECT_EQ(batch.message_bits(), params.message_bits);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const TransportRound expect =
                transport.simulate_round(messages, specs[i].nonce,
                                         specs[i].faults ? *specs[i].faults : FaultModel{});
            const TransportRound got = batch.to_round(i);
            EXPECT_EQ(got.delivered, expect.delivered);
            EXPECT_EQ(got.total_beeps, expect.total_beeps);
            EXPECT_EQ(got.phase1_false_negatives, expect.phase1_false_negatives);
            EXPECT_EQ(got.phase1_false_positives, expect.phase1_false_positives);
            EXPECT_EQ(got.phase2_errors, expect.phase2_errors);
            EXPECT_EQ(got.delivery_mismatches, expect.delivery_mismatches);
            // The zero-copy accessors agree with the owning conversion.
            for (NodeId v = 0; v < graph.node_count(); ++v) {
                ASSERT_EQ(batch.delivered_count(i, v), expect.delivered[v].size());
                for (std::size_t m = 0; m < expect.delivered[v].size(); ++m) {
                    EXPECT_EQ(batch.delivered_message(i, v, m), expect.delivered[v][m]);
                    EXPECT_EQ(batch.delivered_words(i, v, m).size(), batch.message_words());
                }
            }
        }
    }
}

/// Allocations of a third simulate_rounds_into call through a batch the
/// first two calls warmed (the batch keeps its round: same messages
/// and nonce).
std::uint64_t steady_state_allocs(const Transport& transport,
                                  const std::vector<std::optional<Bitstring>>& messages) {
    std::vector<RoundSpec> specs(4, RoundSpec{&messages, 5, nullptr});
    TransportBatch batch;
    transport.simulate_rounds_into(specs, batch);  // builds the round, grows arenas
    transport.simulate_rounds_into(specs, batch);  // everything at high-water

    const std::uint64_t before = alloc_hooks::count();
    transport.simulate_rounds_into(specs, batch);
    const std::uint64_t allocs = alloc_hooks::count() - before;
    EXPECT_GT(batch.arena_words(), 0u);
    return allocs;
}

TEST(TransportBatchRing, SteadyStateDecodeAllocatesNothing) {
    // The zero-allocation contract of transport_batch.h: with the batch's
    // round kept (same messages + nonce), a warmed-up batch decode touches
    // the allocator exactly zero times — at one worker and at several, where
    // which worker decodes which node changes from batch to batch. all_nodes
    // below the crossover puts the measurement on the bitslice + SoA + arena
    // path; two_hop on the per-candidate scalar path; the 4-shard ring on
    // the boundary exchange (halo imports written into warm slots); the TDMA
    // baseline on its packed schedules and per-worker heard buffers.
    Rng rng(9);
    const Graph graph = make_erdos_renyi(48, 0.15, rng);
    const auto messages = make_messages(graph, 10, 77);
    const Graph ring = make_ring(256);
    const auto ring_messages = make_messages(ring, 10, 78);
    for (const std::size_t threads : {1, 4}) {
        for (const auto policy : {DictionaryPolicy::all_nodes, DictionaryPolicy::two_hop}) {
            SCOPED_TRACE(::testing::Message()
                         << (policy == DictionaryPolicy::all_nodes ? "all_nodes" : "two_hop")
                         << " threads=" << threads);
            SimulationParams params = forced_params(policy, simd::Kernel::auto_best);
            params.bitslice_min_candidates = 0;
            params.threads = threads;
            EXPECT_EQ(steady_state_allocs(BeepTransport(graph, params), messages), 0u)
                << "steady-state batched decode allocated";
        }
        SCOPED_TRACE(::testing::Message() << "ring, 4 shards, threads=" << threads);
        SimulationParams params = forced_params(DictionaryPolicy::two_hop, simd::Kernel::auto_best);
        params.threads = threads;
        const BeepTransport sharded(ring, params, 4);
        ASSERT_EQ(sharded.shard_count(), 4u);
        EXPECT_EQ(steady_state_allocs(sharded, ring_messages), 0u)
            << "steady-state sharded decode allocated";

        SCOPED_TRACE(::testing::Message() << "TDMA, threads=" << threads);
        TdmaParams tdma;
        tdma.epsilon = 0.1;
        tdma.message_bits = 10;
        tdma.repetitions = 5;
        tdma.threads = threads;
        EXPECT_EQ(steady_state_allocs(TdmaTransport(graph, tdma), messages), 0u)
            << "steady-state TDMA decode allocated";
    }
}

}  // namespace
}  // namespace nb
