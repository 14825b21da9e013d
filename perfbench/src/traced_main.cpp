// nbbench_traced — the benchmark's per-layer run. Single-threaded, it
// replays each round's per-node pipeline from the library's public calls
// only, with a clock around each call:
//
//   1. Codebook::round                              sim/codebook
//   2. BatchEngine::superimpose_into / hear_into    beep/batch_engine, beep/channel_model
//      over round.rng.derive(0x70683161) / derive(0x70683262)
//   3. Phase1Decoder::accepts_codeword / accept_all codes (phase 1)
//   4. Bitstring::gather_into / gather_mask_into    codes (phase 2 gather)
//   5. DistanceCode::nearest_entry / nearest_entry_soa  codes (phase 2 scan)
//
// and checks that every replayed node delivers exactly what the workload's
// transport (threads = 1) delivered for the same round. The stage sum is
// compared with that transport's wall time (stage_coverage), so a replica
// that drifts from sim/decode_core.cpp shows. The run also times graph
// generation, the shard partition and the cold codebook-cache acquire,
// measures 1 -> nproc thread scaling, and counts operator-new calls in a warm
// batch (bench/alloc_hooks.cpp is linked into this binary only).
//
// For serve_mixed the same closed loop as the timed run is driven, plus the
// server-side split of each job's latency, ping round trips and the cache
// counters from the stats op.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "alloc_hooks.h"
#include "beep/batch_engine.h"
#include "codes/decoders.h"
#include "common/bitslice.h"
#include "common/simd/simd.h"
#include "cli.h"
#include "graph/partition.h"
#include "serve_load.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "workloads.h"

namespace {

using namespace nbbench;
using nb::NodeId;

/// Stage clocks (ns) and event counts summed over the traced rounds.
struct Trace {
    std::uint64_t rounds = 0;
    double build_ns = 0;
    double superimpose_ns = 0;
    double hear_ns = 0;  ///< superimposition + noise
    double phase1_ns = 0;
    double gather_ns = 0;
    double nearest_ns = 0;
    std::uint64_t codewords = 0;
    std::uint64_t encodes = 0;
    std::uint64_t flips = 0;
    std::uint64_t candidates = 0;
    std::uint64_t true_accepted = 0;
    std::uint64_t decodes = 0;
    std::uint64_t shortcuts = 0;
    std::uint64_t full_scans = 0;
    std::uint64_t full_scan_entries = 0;

    double stage_ns() const { return build_ns + hear_ns + phase1_ns + gather_ns + nearest_ns; }
};

class Replica {
public:
    Replica(const nb::Graph& graph, const std::vector<std::optional<nb::Bitstring>>& messages,
            const nb::SimulationParams& params)
        : graph_(graph), messages_(messages), params_(params), codebook_(graph, params) {}

    /// Replay round `nonce` into `trace` (when non-null); returns the number
    /// of nodes whose deliveries differ from round `index` of `batch`.
    std::size_t replay(std::uint64_t nonce, const nb::TransportBatch& batch, std::size_t index,
                       Trace* trace);

private:
    std::uint32_t decode(const nb::Codebook::Round& rd, std::span<const std::uint32_t> entries,
                         const nb::Bitstring& codeword,
                         const std::vector<std::size_t>& positions, std::uint32_t hint,
                         Trace& t);

    const nb::Graph& graph_;
    const std::vector<std::optional<nb::Bitstring>>& messages_;
    nb::SimulationParams params_;
    nb::Codebook codebook_;  ///< private: builds every round afresh
    nb::simd::Kernel kernel_ = nb::simd::resolve_kernel(nb::simd::Kernel::auto_best);

    nb::Bitstring superimposed_, heard1_, heard2_, gathered_;
    std::vector<NodeId> accepted_nodes_;
    std::vector<std::size_t> accepted_decoys_;
    std::vector<std::uint64_t> accept_mask_;
    std::vector<std::uint32_t> distances_;
    nb::BitsliceScratch slice_scratch_;
    std::vector<std::uint64_t> replayed_, delivered_;
};

std::uint32_t Replica::decode(const nb::Codebook::Round& rd,
                              std::span<const std::uint32_t> entries,
                              const nb::Bitstring& codeword,
                              const std::vector<std::size_t>& positions, std::uint32_t hint,
                              Trace& t) {
    std::uint64_t start = now_ns();
    if (kernel_ == nb::simd::Kernel::scalar) {
        heard2_.gather_into(positions, gathered_);
    } else {
        heard2_.gather_mask_into(codeword, gathered_, kernel_);
    }
    t.gather_ns += static_cast<double>(now_ns() - start);

    const nb::DistanceCode& code = codebook_.distance_code();
    start = now_ns();
    const std::uint32_t entry =
        rd.candidate_encoded_soa.empty()
            ? code.nearest_entry(gathered_, rd.candidate_messages, rd.candidate_encoded, entries,
                                 hint, rd.decode_gaps)
            : code.nearest_entry_soa(gathered_, rd.candidate_messages,
                                     rd.candidate_encoded_soa, entries, hint, rd.decode_gaps,
                                     distances_, kernel_);
    t.nearest_ns += static_cast<double>(now_ns() - start);

    // The radius-shortcut rule documented at DistanceCode::nearest_entry.
    ++t.decodes;
    if (!rd.decode_gaps.empty() &&
        2 * gathered_.hamming_distance(rd.candidate_encoded[hint]) < rd.decode_gaps[hint]) {
        ++t.shortcuts;
    } else {
        ++t.full_scans;
        t.full_scan_entries += entries.size();
    }
    return entry;
}

std::size_t Replica::replay(std::uint64_t nonce, const nb::TransportBatch& batch,
                            std::size_t index, Trace* trace) {
    Trace scratch;
    Trace& t = trace != nullptr ? *trace : scratch;
    const std::size_t n = graph_.node_count();
    const std::size_t decoys = codebook_.decoy_count();

    const nb::Codebook::Stats before = codebook_.stats();
    std::uint64_t start = now_ns();
    const std::shared_ptr<const nb::Codebook::Round> round = codebook_.round(messages_, nonce);
    t.build_ns += static_cast<double>(now_ns() - start);
    const nb::Codebook::Stats after = codebook_.stats();
    t.codewords += after.codeword_builds - before.codeword_builds;
    t.encodes += after.payload_encodes - before.payload_encodes;
    const nb::Codebook::Round& rd = *round;

    const nb::BatchParams channel{params_.channel_model(), false};
    const nb::BatchEngine phase1(graph_, channel, rd.rng.derive(0x70683161u));
    const nb::BatchEngine phase2(graph_, channel, rd.rng.derive(0x70683262u));
    const nb::Phase1Decoder decoder(codebook_.beep_code(), params_.epsilon);
    const bool bitsliced = !rd.codeword_slices.empty();

    auto hear = [&](const nb::BatchEngine& engine, const std::vector<nb::Bitstring>& schedules,
                    NodeId v, nb::Bitstring& heard) {
        std::uint64_t s = now_ns();
        engine.superimpose_into(v, schedules, superimposed_);
        t.superimpose_ns += static_cast<double>(now_ns() - s);
        s = now_ns();
        engine.hear_into(v, schedules, heard);
        t.hear_ns += static_cast<double>(now_ns() - s);
        t.flips += heard.hamming_distance(superimposed_);
    };

    std::size_t mismatched = 0;
    for (NodeId v = 0; v < n; ++v) {
        hear(phase1, rd.codewords, v, heard1_);
        const std::span<const std::uint32_t> entries = codebook_.candidate_entries(v);
        const std::size_t node_candidates = codebook_.node_candidate_count(v);

        accepted_nodes_.clear();
        accepted_decoys_.clear();
        start = now_ns();
        if (bitsliced) {
            decoder.accept_all(heard1_, rd.codeword_slices, slice_scratch_, accept_mask_,
                               kernel_);
            for (std::size_t w = 0; w < accept_mask_.size(); ++w) {
                for (std::uint64_t bits = accept_mask_[w]; bits != 0; bits &= bits - 1) {
                    const std::size_t cand =
                        w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                    if (cand >= n) {
                        accepted_decoys_.push_back(cand - n);
                    } else if (cand != v) {
                        accepted_nodes_.push_back(static_cast<NodeId>(cand));
                    }
                }
            }
            t.candidates += n + decoys;
        } else {
            for (std::size_t i = 0; i < node_candidates; ++i) {
                const NodeId u = entries[i];
                if (u == v) {
                    continue;
                }
                ++t.candidates;
                if (decoder.accepts_codeword(heard1_, rd.codewords[u], kernel_)) {
                    accepted_nodes_.push_back(u);
                }
            }
            for (std::size_t i = 0; i < decoys; ++i) {
                ++t.candidates;
                if (decoder.accepts_codeword(heard1_, rd.decoy_codewords[i], kernel_)) {
                    accepted_decoys_.push_back(i);
                }
            }
        }
        t.phase1_ns += static_cast<double>(now_ns() - start);
        for (const auto u : accepted_nodes_) {
            t.true_accepted += graph_.has_edge(u, v) ? 1 : 0;
        }

        hear(phase2, rd.combined_schedules, v, heard2_);
        replayed_.clear();
        for (const auto u : accepted_nodes_) {
            const std::uint32_t entry =
                decode(rd, entries, rd.codewords[u], rd.one_positions[u], u, t);
            if (rd.candidate_messages[entry].test(0)) {
                replayed_.push_back(message_word(rd.candidate_tails[entry]));
            }
        }
        for (const auto i : accepted_decoys_) {
            const auto hint = static_cast<std::uint32_t>(n + 1 + i);
            const std::uint32_t entry =
                decode(rd, entries, rd.decoy_codewords[i], rd.decoy_one_positions[i], hint, t);
            if (rd.candidate_messages[entry].test(0)) {
                replayed_.push_back(message_word(rd.candidate_tails[entry]));
            }
        }

        delivered_.clear();
        for (std::size_t i = 0; i < batch.delivered_count(index, v); ++i) {
            delivered_.push_back(batch.delivered_words(index, v, i)[0]);
        }
        std::sort(replayed_.begin(), replayed_.end());
        std::sort(delivered_.begin(), delivered_.end());
        mismatched += replayed_ == delivered_ ? 0 : 1;
    }
    ++t.rounds;
    return mismatched;
}

/// Operator-new calls per round in a warm batch over one cached codebook
/// round (the E16 measure: same messages and nonce, so pure decoding).
double steady_allocs_per_round(const SimTransport& transport, const SimInputs& inputs,
                               std::uint64_t nonce) {
    constexpr std::size_t kRounds = 2;
    const std::vector<nb::RoundSpec> specs(kRounds,
                                           nb::RoundSpec{&inputs.messages, nonce, nullptr});
    nb::TransportBatch batch;
    transport.run(specs, batch);  // reach the high-water mark
    const std::uint64_t before = nb::alloc_hooks::count();
    transport.run(specs, batch);
    return static_cast<double>(nb::alloc_hooks::count() - before) / kRounds;
}

void run_sim(const SimWorkload& w, const CliOptions& options, Report& report) {
    const std::size_t threads = nproc();
    nb::CodebookCache::instance().clear();

    SimInputs inputs;
    std::uint64_t start = now_ns();
    inputs.graph = make_graph(w, options.seed);
    const double generate_ms = seconds_since(start) * 1e3;
    inputs.messages = make_messages(w, inputs.graph, options.seed);
    inputs.params = make_params(w, options.seed, 1);

    // Cold cache acquire of what the transport will use: the whole-graph
    // codebook, or one shard-view codebook per shard.
    double partition_ms = 0.0;
    double acquire_ms = 0.0;
    std::vector<std::shared_ptr<const nb::SharedCodebook>> held;
    if (w.shards > 1) {
        start = now_ns();
        const nb::ShardPlan plan = nb::make_shard_plan(inputs.graph, w.shards);
        partition_ms = seconds_since(start) * 1e3;
        for (const auto& shard : plan.shards) {
            nb::Codebook::ShardView view;
            view.global_ids = shard.local_to_global;
            view.owned_begin = shard.owned_begin;
            view.owned_count = shard.owned_count;
            view.global_node_count = inputs.graph.node_count();
            view.global_max_degree = inputs.graph.max_degree();
            start = now_ns();
            held.push_back(nb::CodebookCache::instance().acquire(shard.local, inputs.params, view));
            acquire_ms += seconds_since(start) * 1e3;
        }
    } else {
        start = now_ns();
        held.push_back(nb::CodebookCache::instance().acquire(inputs.graph, inputs.params));
        acquire_ms = seconds_since(start) * 1e3;
    }

    const SimTransport serial(w, inputs.graph, inputs.params);
    Replica replica(inputs.graph, inputs.messages, inputs.params);
    nb::TransportBatch batch;
    std::uint64_t mismatched = 0;  // node deliveries that differ
    std::uint64_t failed_rounds = 0;
    std::uint64_t replayed_rounds = 0;
    auto check = [&](std::size_t differ) {
        mismatched += differ;
        failed_rounds += differ > 0 ? 1 : 0;
        ++replayed_rounds;
    };
    std::uint64_t nonce = 0;
    auto serial_round = [&] {
        const nb::RoundSpec spec{&inputs.messages, nonce, nullptr};
        const std::uint64_t s = now_ns();
        serial.run({&spec, 1}, batch);
        return seconds_since(s);
    };

    // Warm-up round (node-gap caches, workspaces), checked but not traced.
    serial_round();
    check(replica.replay(nonce++, batch, 0, nullptr));

    Trace trace;
    double serial_wall = 0.0;
    const std::uint64_t traced_start = now_ns();
    while (trace.rounds < 2 || seconds_since(traced_start) < options.seconds * 0.5) {
        serial_wall += serial_round();
        check(replica.replay(nonce++, batch, 0, &trace));
    }
    const double rounds = static_cast<double>(trace.rounds);
    const double serial_rounds_per_s = rounds / serial_wall;

    // 1 -> nproc scaling on the timed run's batch shape (pipelined build).
    nb::SimulationParams wide_params = inputs.params;
    wide_params.threads = threads;
    const SimTransport parallel(w, inputs.graph, wide_params);
    std::vector<nb::RoundSpec> specs;
    auto parallel_batch = [&] {
        specs.clear();
        for (std::size_t i = 0; i < w.batch_rounds; ++i) {
            specs.push_back(nb::RoundSpec{&inputs.messages, nonce++, nullptr});
        }
        const std::uint64_t s = now_ns();
        parallel.run(specs, batch);
        return seconds_since(s);
    };
    parallel_batch();  // warm-up
    double parallel_wall = 0.0;
    std::size_t parallel_batches = 0;
    while (parallel_batches < 2 || parallel_wall < options.seconds * 0.2) {
        parallel_wall += parallel_batch();
        ++parallel_batches;
    }
    const double parallel_rounds_per_s =
        static_cast<double>(parallel_batches * w.batch_rounds) / parallel_wall;

    const double allocs_serial = steady_allocs_per_round(serial, inputs, nonce);
    const double allocs_parallel = steady_allocs_per_round(parallel, inputs, nonce);
    const nb::CodebookCache::Stats cache = nb::CodebookCache::instance().stats();

    report.attempted = replayed_rounds;
    report.failed = failed_rounds;
    report.correct = mismatched == 0;
    report.notes.push_back("replica: " + std::to_string(replayed_rounds) +
                           " rounds replayed, " + std::to_string(mismatched) +
                           " node deliveries differ from the transport");
    const double n = static_cast<double>(inputs.graph.node_count());
    const auto per_round_ms = [&](double ns) { return ns * 1e-6 / rounds; };
    const auto samples = trace.rounds;
    const double stage_ms = per_round_ms(trace.stage_ns());
    const double wall_ms = serial_wall * 1e3 / rounds;

    report.add("graph.generate_ms", generate_ms, "ms");
    if (w.shards > 1) {
        report.add("graph.partition_ms", partition_ms, "ms");
    }
    report.add("sim.codebook_cache.acquire_ms", acquire_ms, "ms", held.size());
    report.add("sim.codebook.round_build_ms", per_round_ms(trace.build_ns), "ms", samples);
    report.add("sim.codebook.codewords_per_round", static_cast<double>(trace.codewords) / rounds,
               "count", samples);
    report.add("sim.codebook.encodes_per_round", static_cast<double>(trace.encodes) / rounds,
               "count", samples);
    report.add("beep.batch_engine.superimpose_ms", per_round_ms(trace.superimpose_ns), "ms",
               samples);
    report.add("beep.channel.noise_ms", per_round_ms(trace.hear_ns - trace.superimpose_ns), "ms",
               samples);
    report.add("beep.channel.flips_per_node", static_cast<double>(trace.flips) / (n * rounds),
               "count", samples);
    report.add("codes.phase1.accept_ms", per_round_ms(trace.phase1_ns), "ms", samples);
    report.add("codes.phase1.candidates_per_node",
               static_cast<double>(trace.candidates) / (n * rounds), "count", samples);
    report.add("codes.phase1.useful_ratio",
               static_cast<double>(trace.true_accepted) / static_cast<double>(trace.candidates),
               "ratio", samples);
    report.add("codes.phase2.gather_ms", per_round_ms(trace.gather_ns), "ms", samples);
    report.add("codes.phase2.nearest_ms", per_round_ms(trace.nearest_ns), "ms", samples);
    report.add("codes.phase2.decodes_per_node", static_cast<double>(trace.decodes) / (n * rounds),
               "count", samples);
    report.add("codes.phase2.entries_per_full_scan",
               trace.full_scans == 0 ? 0.0
                                     : static_cast<double>(trace.full_scan_entries) /
                                           static_cast<double>(trace.full_scans),
               "count", samples);
    report.add("codes.phase2.shortcut_ratio",
               trace.decodes == 0 ? 0.0
                                  : static_cast<double>(trace.shortcuts) /
                                        static_cast<double>(trace.decodes),
               "ratio", samples);
    report.add("sim.transport.round_ms_threads1", wall_ms, "ms", samples);
    report.add("sim.transport.residual_ms", wall_ms - stage_ms, "ms", samples);
    report.add("sim.transport.stage_coverage", stage_ms / wall_ms, "ratio", samples);
    report.add("sim.transport.steady_allocs_per_round_threads1", allocs_serial, "count");
    report.add("sim.transport.steady_allocs_per_round_threadsN", allocs_parallel, "count");
    report.add("common.thread_pool.parallel_efficiency",
               parallel_rounds_per_s / (static_cast<double>(threads) * serial_rounds_per_s),
               "ratio", parallel_batches * w.batch_rounds);
    report.add("sim.codebook_cache.hit_rate", cache.hit_rate(), "ratio");
    report.add("sim.codebook_cache.builds", static_cast<double>(cache.builds), "count");
}

}  // namespace

int main(int argc, char** argv) {
    const CliOptions options = parse_cli_options(argc, argv);
    return run_main(options, [&](Report& report) {
        if (options.workload == "serve_mixed") {
            ServeOptions serve;
            serve.seed = options.seed;
            serve.seconds = options.seconds;
            serve.traced = true;
            serve.toy = options.toy;
            serve.work_dir = options.work_dir;
            run_serve_workload(serve, report);
            return true;
        }
        const auto w = find_sim_workload(options.workload, options.toy);
        if (!w.has_value()) {
            return false;
        }
        run_sim(*w, options, report);
        return true;
    });
}
