// E14 — engine and codec micro-benchmarks (google-benchmark).
//
// Throughput of the primitives everything else is built from: word-parallel
// superimposition, noise injection (log reference and skip table, plus the
// table build), the channel-noise stage per channel model, codeword
// sampling, the per-round codebook build, threshold and nearest-codeword
// decoding, and a full Algorithm 1 round.
#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>
#include <string>

#include "beep/batch_engine.h"
#include "beep/channel_model.h"
#include "common/aligned.h"
#include "common/simd/simd.h"
#include "codes/beep_code.h"
#include "codes/decoders.h"
#include "codes/distance_code.h"
#include "common/bitstring.h"
#include "graph/generators.h"
#include "sim/codebook.h"
#include "sim/transport.h"

namespace {

using namespace nb;

void BM_BitstringOr(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Bitstring a = Bitstring::random(rng, bits);
    const Bitstring b = Bitstring::random(rng, bits);
    for (auto _ : state) {
        a |= b;
        benchmark::DoNotOptimize(a);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_BitstringOr)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_NoiseInjection(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    for (auto _ : state) {
        Bitstring s(bits);
        s.apply_noise(rng, 0.1);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_NoiseInjection)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// BM_NoiseInjection's flips with the gaps looked up in a GeometricSkipTable
// (the transports' iid path) instead of computed with a log per flip: the
// same draws, the same flips.
void BM_NoiseInjectionTable(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    const GeometricSkipTable table(0.1);
    Rng rng(2);
    for (auto _ : state) {
        Bitstring s(bits);
        s.apply_noise(rng, table);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_NoiseInjectionTable)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ChannelNoiseSampler::apply on one fresh sampler per transcript, as
// BatchEngine calls it, at b = 13,608 (ge-burst's transcript length): iid
// at 0.1 with its skip table, ge-burst's Gilbert-Elliott channel, and the
// heterogeneous scenario's rates. Reports the time per transcript bit.
void BM_ChannelNoiseApply(benchmark::State& state, const ChannelModel& model) {
    constexpr std::size_t bits = 13608;
    const std::optional<GeometricSkipTable> table = model.skip_table();
    Bitstring transcript(bits);
    std::uint64_t node = 0;
    for (auto _ : state) {
        transcript.reset(bits);
        ChannelNoiseSampler sampler(model, node, Rng(3).derive(0x6e6f6973u, node));
        ++node;
        sampler.apply(transcript, /*dense=*/false, table ? &*table : nullptr);
        benchmark::DoNotOptimize(transcript);
    }
    state.counters["time_per_bit"] = benchmark::Counter(
        static_cast<double>(bits),
        benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ChannelNoiseApply, iid_table, ChannelModel::iid(0.1));
BENCHMARK_CAPTURE(BM_ChannelNoiseApply, gilbert_elliott,
                  ChannelModel::gilbert_elliott(0.03, 0.15, 0.02, 0.35));
BENCHMARK_CAPTURE(BM_ChannelNoiseApply, heterogeneous,
                  ChannelModel::heterogeneous(0.02, 0.30, 0x686574));

// One table build, paid once per transport; the argument is epsilon in
// thousandths.
void BM_GeometricSkipTableBuild(benchmark::State& state) {
    const double p = static_cast<double>(state.range(0)) / 1000.0;
    for (auto _ : state) {
        const GeometricSkipTable table(p);
        benchmark::DoNotOptimize(table.size());
    }
}
BENCHMARK(BM_GeometricSkipTableBuild)->Arg(100)->Arg(50)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_BeepCodeword(benchmark::State& state) {
    const BeepCode code(static_cast<std::size_t>(state.range(0)), 256, 3);
    std::uint64_t r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.codeword(++r));
    }
}
BENCHMARK(BM_BeepCodeword)->Arg(1 << 12)->Arg(1 << 16);

void BM_DistinctPositions(benchmark::State& state) {
    // (universe, count) = a codeword's (length, weight) under the defaults:
    // (960, 80) on a ring, (8640, 240) on an 8-regular graph.
    const auto universe = static_cast<std::size_t>(state.range(0));
    const auto count = static_cast<std::size_t>(state.range(1));
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.distinct_positions(universe, count));
    }
}
BENCHMARK(BM_DistinctPositions)->Args({960, 80})->Args({8640, 240});

void BM_RoundBuild(benchmark::State& state, bool ring) {
    // Codebook::build_round into one reused Round, serially, with a fresh
    // nonce per iteration: the round-build stage alone, as every simulated
    // round pays it. Parameters follow perfbench's ring64k_sharded (B=4,
    // 8 decoys) and two_hop_rr16k (B=12 here, 32 decoys) at n=4096.
    constexpr std::size_t n = 4096;
    Rng rng(8);
    const Graph g = ring ? make_ring(n) : make_random_regular(n, 8, rng);
    SimulationParams params;
    params.epsilon = ring ? 0.05 : 0.1;
    params.message_bits = ring ? 4 : 12;
    params.c_eps = 4;
    params.decoy_count = ring ? 8 : 32;
    const Codebook book(g, params);
    std::vector<std::optional<Bitstring>> messages(n);
    for (auto& message : messages) {
        message = Bitstring::random(rng, params.message_bits);
    }
    Codebook::Round round;
    std::uint64_t nonce = 0;
    for (auto _ : state) {
        book.build_round(round, messages, ++nonce);
        benchmark::DoNotOptimize(round.phase2_beeps);
        benchmark::ClobberMemory();
    }
    state.counters["beep_length"] = static_cast<double>(book.beep_length());
}
BENCHMARK_CAPTURE(BM_RoundBuild, ring, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RoundBuild, regular8, false)->Unit(benchmark::kMillisecond);

void BM_Phase1Accept(benchmark::State& state) {
    const BeepCode code(1 << 14, 256, 5);
    const Phase1Decoder decoder(code, 0.1);
    Bitstring heard(1 << 14);
    for (std::uint64_t r = 0; r < 16; ++r) {
        heard |= code.codeword(r);
    }
    const Bitstring candidate = code.codeword(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(decoder.accepts_codeword(heard, candidate));
    }
}
BENCHMARK(BM_Phase1Accept);

void BM_Phase1Reject(benchmark::State& state) {
    // A candidate outside the superimposed set: the early-exit kernel stops
    // as soon as the missing-ones count reaches the threshold, so rejection
    // (the overwhelmingly common case in a dictionary scan) costs only a
    // prefix of the codeword.
    const BeepCode code(1 << 14, 256, 5);
    const Phase1Decoder decoder(code, 0.1);
    Bitstring heard(1 << 14);
    for (std::uint64_t r = 0; r < 16; ++r) {
        heard |= code.codeword(r);
    }
    const Bitstring candidate = code.codeword(99);  // not superimposed
    for (auto _ : state) {
        benchmark::DoNotOptimize(decoder.accepts_codeword(heard, candidate));
    }
}
BENCHMARK(BM_Phase1Reject);

void BM_DistanceDecode(benchmark::State& state) {
    const DistanceCode code(16, 512, 7);
    Rng rng(3);
    std::vector<Bitstring> candidates;
    for (int i = 0; i < 64; ++i) {
        candidates.push_back(Bitstring::random(rng, 16));
    }
    const Bitstring received = code.encode(candidates[17]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.decode(received, candidates));
    }
}
BENCHMARK(BM_DistanceDecode);

void BM_BatchHear(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    const Graph g = make_random_regular(n, 8, rng);
    std::vector<Bitstring> schedules;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        schedules.push_back(Bitstring::random(rng, 1 << 14));
    }
    BatchParams params;
    params.channel.epsilon = 0.1;
    const BatchEngine engine(g, params, Rng(5));
    NodeId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.hear(v, schedules));
        v = (v + 1) % g.node_count();
    }
}
BENCHMARK(BM_BatchHear)->Arg(64)->Arg(256);

void BM_TransportRound(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    const Graph g = make_random_regular(n, 8, rng);
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = 12;
    params.c_eps = 4;
    const BeepTransport transport(g, params);
    Rng message_rng(7);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, 12);
    }
    std::uint64_t nonce = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(transport.simulate_round(messages, ++nonce));
    }
    state.counters["beep_rounds"] =
        static_cast<double>(transport.rounds_per_broadcast_round());
}
BENCHMARK(BM_TransportRound)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_TransportRoundSameKey(benchmark::State& state) {
    // Re-simulating one (messages, nonce) round through one reused batch
    // isolates the decode path: the batch keeps the round it built, so no
    // codeword or encoding is rebuilt (both phases still run).
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    const Graph g = make_random_regular(n, 8, rng);
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = 12;
    params.c_eps = 4;
    const BeepTransport transport(g, params);
    Rng message_rng(7);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, 12);
    }
    const RoundSpec spec{&messages, 1, nullptr};
    TransportBatch batch;
    for (auto _ : state) {
        transport.simulate_rounds_into({&spec, 1}, batch);
        benchmark::DoNotOptimize(batch.stats(0));
    }
}
BENCHMARK(BM_TransportRoundSameKey)->Arg(256)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel-level microbenches, registered once per kernel the CPU supports
// (see main below). Workload shapes mirror the n=1024 decode hot path:
// 6336-bit beep codewords (99 words), weight 176, reject limit 53, a heard
// transcript at ~26% density, and a 1024-entry word-major dictionary.

constexpr std::size_t kBeepWords = 99;

AlignedWords random_density_words(Rng& rng, std::size_t words, int and_depth) {
    // AND of 2^and_depth random words: density 2^-and_depth.
    AlignedWords out(words);
    for (auto& w : out) {
        w = rng.next_u64();
        for (int d = 0; d < and_depth; ++d) {
            w &= rng.next_u64();
        }
    }
    return out;
}

void BM_SimdAndNotBelow(benchmark::State& state, simd::Kernel kernel) {
    // The packed phase-1 rejection test: early-exit popcount of
    // candidate & ~heard against the reject limit.
    Rng rng(8);
    const AlignedWords heard = random_density_words(rng, kBeepWords, 2);
    const AlignedWords candidate = random_density_words(rng, kBeepWords, 5);
    const auto& ops = simd::ops(kernel);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ops.and_not_count_below(candidate.data(), heard.data(), kBeepWords, 53));
    }
}

void BM_SimdHammingAll(benchmark::State& state, simd::Kernel kernel) {
    // The phase-2 dictionary scan over the word-major SoA encoding:
    // distance of one received word-row to every dictionary entry.
    Rng rng(9);
    const std::size_t words = 17;                  // 1056-bit phase-2 blocks
    const std::size_t stride = 1024;               // dictionary entries
    const AlignedWords soa = random_density_words(rng, words * stride, 0);
    const AlignedWords received = random_density_words(rng, words, 0);
    std::vector<std::uint32_t> distances(stride);
    const auto& ops = simd::ops(kernel);
    for (auto _ : state) {
        ops.hamming_all(received.data(), words, soa.data(), stride, distances.data());
        benchmark::DoNotOptimize(distances.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stride));  // candidates/s
}

void BM_SimdBitslicePass(benchmark::State& state, simd::Kernel kernel) {
    // The transposed phase-1 pass: every 1-row of the transcript feeds the
    // vertical carry-save counters of 64 candidates per lane word.
    Rng rng(10);
    const std::size_t rows = 6336;
    const std::size_t lanes = 24;                  // 1056 candidates padded
    const std::size_t plane_count = 7;
    const AlignedWords matrix = random_density_words(rng, rows * lanes, 5);
    const AlignedWords transcript = random_density_words(rng, kBeepWords, 2);
    const AlignedWords bias = random_density_words(rng, plane_count * lanes, 1);
    AlignedWords low(4 * lanes, 0);
    AlignedWords planes(plane_count * lanes);
    AlignedWords accept(lanes);
    const auto& ops = simd::ops(kernel);
    for (auto _ : state) {
        // Per-call setup as on the real path: planes re-biased, accept cleared.
        std::memcpy(planes.data(), bias.data(), planes.size() * sizeof(std::uint64_t));
        std::memset(accept.data(), 0, accept.size() * sizeof(std::uint64_t));
        ops.bitslice_pass(transcript.data(), kBeepWords, matrix.data(), lanes, low.data(),
                          planes.data(), plane_count, accept.data());
        benchmark::DoNotOptimize(accept.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(lanes * 64));  // candidates/s
}

void BM_SimdGatherBits(benchmark::State& state, simd::Kernel kernel) {
    // The phase-2 subsequence gather: the heard transcript's bits at a
    // codeword's ~176 1-positions, packed (PEXT walk on the AVX tables).
    Rng rng(11);
    const AlignedWords heard = random_density_words(rng, kBeepWords, 2);
    const AlignedWords mask = random_density_words(rng, kBeepWords, 5);
    AlignedWords out(kBeepWords);
    const auto& ops = simd::ops(kernel);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ops.gather_bits(heard.data(), mask.data(), kBeepWords, out.data()));
    }
}

}  // namespace

int main(int argc, char** argv) {
    // The kernel microbenches register one instance per kernel this CPU can
    // run, named like BM_SimdHammingAll/avx512, so one invocation reports
    // the dispatch alternatives side by side.
    for (const auto kernel :
         {simd::Kernel::scalar, simd::Kernel::avx2, simd::Kernel::avx512}) {
        if (!simd::kernel_supported(kernel)) {
            continue;
        }
        const std::string suffix = std::string("/") + simd::kernel_name(kernel);
        benchmark::RegisterBenchmark(("BM_SimdAndNotBelow" + suffix).c_str(),
                                     BM_SimdAndNotBelow, kernel);
        benchmark::RegisterBenchmark(("BM_SimdHammingAll" + suffix).c_str(),
                                     BM_SimdHammingAll, kernel);
        benchmark::RegisterBenchmark(("BM_SimdBitslicePass" + suffix).c_str(),
                                     BM_SimdBitslicePass, kernel);
        benchmark::RegisterBenchmark(("BM_SimdGatherBits" + suffix).c_str(),
                                     BM_SimdGatherBits, kernel);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
