// Tests for the pluggable channel-model layer: validation, the statistical
// properties of each non-i.i.d. model (burst lengths, per-node rates,
// adversarial budgets), engine-level equivalence between RoundEngine and
// BatchEngine under every samplable model, and determinism of transports
// driven with non-i.i.d. channels.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "baselines/tdma_transport.h"
#include "beep/batch_engine.h"
#include "beep/channel_model.h"
#include "beep/round_engine.h"
#include "common/error.h"
#include "graph/generators.h"
#include "sim/transport.h"
#include "transport_goldens.h"

namespace nb {
namespace {

TEST(ChannelModel, ValidatesParameterRanges) {
    EXPECT_NO_THROW(ChannelModel::iid(0.49).validate());
    EXPECT_THROW(ChannelModel::iid(0.5).validate(), precondition_error);
    EXPECT_THROW(ChannelModel::iid(-0.01).validate(), precondition_error);

    EXPECT_NO_THROW(ChannelModel::gilbert_elliott(0.1, 0.2, 0.05, 1.0).validate());
    EXPECT_THROW(ChannelModel::gilbert_elliott(0.0, 0.2, 0.05, 0.4).validate(),
                 precondition_error);
    EXPECT_THROW(ChannelModel::gilbert_elliott(0.1, 1.5, 0.05, 0.4).validate(),
                 precondition_error);
    EXPECT_THROW(ChannelModel::gilbert_elliott(0.1, 0.2, -0.1, 0.4).validate(),
                 precondition_error);

    EXPECT_NO_THROW(ChannelModel::heterogeneous(0.0, 0.3, 7).validate());
    EXPECT_THROW(ChannelModel::heterogeneous(0.3, 0.2, 7).validate(), precondition_error);
    EXPECT_THROW(ChannelModel::heterogeneous(0.1, 0.5, 7).validate(), precondition_error);

    EXPECT_NO_THROW(ChannelModel::adversarial_budget(0).validate());
    EXPECT_NO_THROW(ChannelModel::adversarial_budget(1 << 20).validate());

    // Only iid supports the practical own-beep exemption: stateful models
    // would desynchronize if per-bit draws were skipped.
    ChannelModel ge = ChannelModel::gilbert_elliott(0.1, 0.2, 0.05, 0.4);
    ge.noise_on_own_beep = false;
    EXPECT_THROW(ge.validate(), precondition_error);
    EXPECT_NO_THROW(ChannelModel::iid(0.1, /*noise_on_own_beep=*/false).validate());
}

TEST(ChannelModel, NoiselessDetection) {
    EXPECT_TRUE(ChannelModel::iid(0.0).noiseless());
    EXPECT_FALSE(ChannelModel::iid(0.01).noiseless());
    EXPECT_TRUE(ChannelModel::gilbert_elliott(0.1, 0.2, 0.0, 0.0).noiseless());
    EXPECT_FALSE(ChannelModel::gilbert_elliott(0.1, 0.2, 0.0, 0.3).noiseless());
    EXPECT_TRUE(ChannelModel::heterogeneous(0.0, 0.0, 1).noiseless());
    EXPECT_FALSE(ChannelModel::heterogeneous(0.0, 0.2, 1).noiseless());
    EXPECT_TRUE(ChannelModel::adversarial_budget(0).noiseless());
    EXPECT_FALSE(ChannelModel::adversarial_budget(1).noiseless());
}

TEST(ChannelModel, DesignEpsilon) {
    EXPECT_DOUBLE_EQ(ChannelModel::iid(0.2).design_epsilon(), 0.2);
    // Stationary rate: P(bad) = 0.1/(0.1+0.3) = 0.25 -> 0.75*0.0 + 0.25*0.4.
    EXPECT_NEAR(ChannelModel::gilbert_elliott(0.1, 0.3, 0.0, 0.4).design_epsilon(), 0.1,
                1e-12);
    EXPECT_DOUBLE_EQ(ChannelModel::heterogeneous(0.1, 0.3, 1).design_epsilon(), 0.2);
    EXPECT_DOUBLE_EQ(ChannelModel::adversarial_budget(100).design_epsilon(), 0.0);
    // Always a valid SimulationParams epsilon, even for saturated bursts.
    EXPECT_LT(ChannelModel::gilbert_elliott(1.0, 0.01, 1.0, 1.0).design_epsilon(), 0.5);
}

TEST(ChannelModel, IidSamplerMatchesLegacyNoisePath) {
    // The sampler must reproduce Bitstring::apply_noise on the same derived
    // stream — this is the exact hook BatchEngine drives, so equality here
    // is what keeps every pre-ChannelModel golden fingerprint unchanged.
    // With the model's gap table (what BatchEngine passes) and without
    // one, the sampler must reproduce the log reference exactly.
    const Rng base(123);
    const ChannelModel model = ChannelModel::iid(0.17);
    const auto table = model.skip_table();
    ASSERT_TRUE(table.has_value());
    Bitstring via_sampler(4096);
    ChannelNoiseSampler sampler(model, 5, base.derive(0x6e6f6973u, 5));
    sampler.apply(via_sampler, /*dense=*/false);
    Bitstring via_table(4096);
    ChannelNoiseSampler table_sampler(model, 5, base.derive(0x6e6f6973u, 5));
    table_sampler.apply(via_table, /*dense=*/false, &*table);

    Bitstring via_legacy(4096);
    Rng legacy = base.derive(0x6e6f6973u, 5);
    via_legacy.apply_noise(legacy, 0.17);
    EXPECT_EQ(via_sampler, via_legacy);
    EXPECT_EQ(via_table, via_legacy);
}

TEST(ChannelModel, SkipTableOnlyForIidWithNoise) {
    EXPECT_TRUE(ChannelModel::iid(0.1).skip_table().has_value());
    EXPECT_FALSE(ChannelModel::iid(0.0).skip_table().has_value());
    EXPECT_FALSE(ChannelModel::heterogeneous(0.1, 0.1, 1).skip_table().has_value());
    EXPECT_FALSE(ChannelModel::gilbert_elliott(0.1, 0.2, 0.05, 0.4).skip_table().has_value());
    EXPECT_FALSE(ChannelModel::adversarial_budget(4).skip_table().has_value());
    EXPECT_DOUBLE_EQ(ChannelModel::iid(0.1).skip_table()->p(), 0.1);
}

TEST(ChannelModel, TransportOutputsMatchPinnedFingerprints) {
    // Fingerprints captured from the log-reference sampler, before the
    // iid path looked its gaps up in a table. The heterogeneous,
    // Gilbert-Elliott and adversarial models never use the table; the iid
    // rows do. High noise at c_eps = 3 makes every row decode with errors,
    // so the digests see the noise itself, not just clean deliveries.
    Rng graph_rng(42);
    const Graph g = make_erdos_renyi(32, 0.18, graph_rng);
    const auto messages = golden::make_messages(g, 10, 1234);
    const struct {
        ChannelModel model;
        std::uint64_t transport;
        std::uint64_t engine;  ///< hear_all over random 8640-bit schedules
    } cases[] = {
        {ChannelModel::iid(0.3), 0xcac1faa30c134c42ULL, 0x461a3bc3b6ad9f1aULL},
        {ChannelModel::iid(0.2), 0x47b65905802d3737ULL, 0xfc56e63268f2b766ULL},
        {ChannelModel::heterogeneous(0.1, 0.45, 0x9), 0x7549e57a55d9ce07ULL,
         0xd41da106c8b61cfbULL},
        {ChannelModel::gilbert_elliott(0.1, 0.15, 0.1, 0.45), 0x18d83741e8423dbaULL,
         0x0a6aab85ce802e62ULL},
        {ChannelModel::adversarial_budget(400), 0xbed7d19be562c95eULL, 0x40d6228a265710d0ULL},
    };
    for (const auto& c : cases) {
        SimulationParams params = golden::noisy_params(DictionaryPolicy::two_hop);
        params.channel = c.model;
        params.c_eps = 3;
        const BeepTransport transport(g, params);
        EXPECT_EQ(golden::run_fingerprint(transport, messages, FaultModel{}), c.transport)
            << c.model.describe();

        BatchParams batch;
        batch.channel = c.model;
        const BatchEngine engine(g, batch, Rng(77));
        Rng schedule_rng(5);
        std::vector<Bitstring> schedules;
        for (NodeId v = 0; v < g.node_count(); ++v) {
            schedules.push_back(Bitstring::random(schedule_rng, 8640));
        }
        std::uint64_t h = 0;
        for (const auto& heard : engine.hear_all(schedules)) {
            h = mix64(h ^ heard.hash());
        }
        EXPECT_EQ(h, c.engine) << c.model.describe();
    }
}

TEST(ChannelModel, GilbertElliottBurstStatistics) {
    // With eps_good = 0 and eps_bad = 1 the flip pattern IS the burst
    // indicator: 1-runs are bursts (Geometric(p_exit), mean 1/p_exit) and
    // the long-run burst fraction is p_enter / (p_enter + p_exit).
    const double p_enter = 0.02;
    const double p_exit = 0.2;
    const std::size_t length = 200000;
    Bitstring transcript(length);
    ChannelNoiseSampler sampler(ChannelModel::gilbert_elliott(p_enter, p_exit, 0.0, 1.0), 0,
                                Rng(99));
    sampler.apply(transcript, /*dense=*/true);

    std::size_t runs = 0;
    bool previous = false;
    for (std::size_t i = 0; i < length; ++i) {
        const bool bit = transcript.test(i);
        if (bit && !previous) {
            ++runs;
        }
        previous = bit;
    }
    ASSERT_GT(runs, 1000u);
    const double mean_burst =
        static_cast<double>(transcript.count()) / static_cast<double>(runs);
    EXPECT_NEAR(mean_burst, 1.0 / p_exit, 0.5);
    const double burst_fraction =
        static_cast<double>(transcript.count()) / static_cast<double>(length);
    EXPECT_NEAR(burst_fraction, p_enter / (p_enter + p_exit), 0.02);
}

TEST(ChannelModel, GilbertElliottApplyMatchesFlipNext) {
    // apply() consumes flip_next's draws a word at a time: the same flips
    // and the same stream state after, for every rate at 0, 2^-53 (one
    // 53-bit draw in 2^53 hits), a typical value and 1, and for lengths
    // around word boundaries up to ge-burst's transcript (13,608 bits).
    // Transcripts start in the good state. Swapping (enter, exit) and
    // (good, bad) turns a start in the burst into a start in the good state
    // with the same draws, so the swapped model covers the burst start.
    const std::array<double, 4> enter = {0.0, 0x1.0p-53, 0.03, 1.0};
    const std::array<double, 4> exit = {0.0, 0x1.0p-53, 0.15, 1.0};
    const std::array<double, 4> good = {0.0, 0x1.0p-53, 0.02, 1.0};
    const std::array<double, 4> bad = {0.0, 0x1.0p-53, 0.35, 1.0};
    std::uint64_t seed = 0;
    for (const double p_enter : enter) {
        for (const double p_exit : exit) {
            for (const double eps_good : good) {
                for (const double eps_bad : bad) {
                    for (const bool start_in_burst : {false, true}) {
                        const ChannelModel model =
                            start_in_burst
                                ? ChannelModel::gilbert_elliott(p_exit, p_enter, eps_bad,
                                                                eps_good)
                                : ChannelModel::gilbert_elliott(p_enter, p_exit, eps_good,
                                                                eps_bad);
                        for (const std::size_t length : {1, 63, 64, 65, 129, 13608}) {
                            SCOPED_TRACE(::testing::Message()
                                         << model.describe() << " burst start "
                                         << start_in_burst << " length " << length);
                            const Rng rng(++seed);
                            ChannelNoiseSampler word_at_a_time(model, 0, rng);
                            ChannelNoiseSampler bit_at_a_time(model, 0, rng);
                            Rng content = rng.derive(1);
                            Bitstring transcript = Bitstring::random(content, length);
                            Bitstring expected = transcript;
                            word_at_a_time.apply(transcript, /*dense=*/true);
                            for (std::size_t i = 0; i < length; ++i) {
                                if (bit_at_a_time.flip_next(expected.test(i))) {
                                    expected.flip(i);
                                }
                            }
                            ASSERT_EQ(transcript, expected);
                            Rng after_word = word_at_a_time.rng();
                            Rng after_bit = bit_at_a_time.rng();
                            ASSERT_EQ(after_word.next_u64(), after_bit.next_u64());
                        }
                    }
                }
            }
        }
    }
}

TEST(ChannelModel, HeterogeneousPerNodeRates) {
    const ChannelModel model = ChannelModel::heterogeneous(0.05, 0.30, 0xfeed);
    const std::size_t length = 50000;
    bool saw_distinct = false;
    double previous_rate = -1.0;
    for (std::uint64_t node = 0; node < 6; ++node) {
        const double expected = model.node_epsilon(node);
        EXPECT_GE(expected, 0.05);
        EXPECT_LE(expected, 0.30);
        // The draw is deterministic in (seed, node) — stable across rounds
        // and engines.
        EXPECT_DOUBLE_EQ(expected, model.node_epsilon(node));

        Bitstring transcript(length);
        ChannelNoiseSampler sampler(model, node, Rng(1000 + node));
        sampler.apply(transcript, /*dense=*/false);
        const double measured =
            static_cast<double>(transcript.count()) / static_cast<double>(length);
        EXPECT_NEAR(measured, expected, 0.012) << "node " << node;
        if (previous_rate >= 0.0 && std::abs(expected - previous_rate) > 1e-6) {
            saw_distinct = true;
        }
        previous_rate = expected;
    }
    EXPECT_TRUE(saw_distinct);  // heterogeneity is real, not a constant
}

TEST(ChannelModel, AdversarialBudgetRespected) {
    Rng rng(5);
    const Bitstring original = Bitstring::random(rng, 2048);
    const std::size_t ones = original.count();
    ASSERT_GT(ones, 64u);

    // Budget below the transcript weight: exactly `budget` erasures, all of
    // them on the earliest 1s, and never an insertion.
    Bitstring damaged = original;
    ChannelNoiseSampler sampler(ChannelModel::adversarial_budget(64), 0, Rng(1));
    sampler.apply(damaged, /*dense=*/false);
    EXPECT_EQ(damaged.count(), ones - 64);
    EXPECT_EQ(damaged.hamming_distance(original), 64u);
    EXPECT_EQ((damaged & ~original).count(), 0u);  // erasures only
    const auto original_positions = original.one_positions();
    const auto damaged_positions = damaged.one_positions();
    for (std::size_t i = 0; i < damaged_positions.size(); ++i) {
        EXPECT_EQ(damaged_positions[i], original_positions[i + 64]);
    }

    // Budget above the weight: the whole transcript is erased, no more.
    Bitstring wiped = original;
    ChannelNoiseSampler greedy(ChannelModel::adversarial_budget(ones + 1000), 0, Rng(1));
    greedy.apply(wiped, /*dense=*/false);
    EXPECT_EQ(wiped.count(), 0u);
}

/// Minimal oblivious schedule player (mirrors test_beep_engines) for the
/// cross-engine equivalence property under the new models.
class SchedulePlayer final : public BeepAlgorithm {
public:
    explicit SchedulePlayer(Bitstring schedule)
        : schedule_(std::move(schedule)), heard_(schedule_.size()) {}

    void initialize(NodeId, const NetworkInfo&, Rng&) override {}
    BeepAction act(std::size_t round, Rng&) override {
        return schedule_.test(round) ? BeepAction::beep : BeepAction::listen;
    }
    void receive(std::size_t round, bool received, Rng&) override {
        if (received) {
            heard_.set(round);
        }
        done_ = round + 1 == schedule_.size();
    }
    bool finished() const override { return done_; }
    const Bitstring& heard() const noexcept { return heard_; }

private:
    Bitstring schedule_;
    Bitstring heard_;
    bool done_ = false;
};

void expect_engines_agree(const ChannelModel& model, std::uint64_t seed) {
    Rng graph_rng(seed);
    const Graph g = make_erdos_renyi(16, 0.25, graph_rng);
    const std::size_t length = 128;
    Rng schedule_rng(seed + 1);
    std::vector<Bitstring> schedules;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        schedules.push_back(Bitstring::random(schedule_rng, length));
    }

    const Rng base(424242);
    BatchParams params;
    params.channel = model;
    params.dense_noise = true;
    const BatchEngine batch(g, params, base);

    std::vector<std::unique_ptr<BeepAlgorithm>> nodes;
    std::vector<SchedulePlayer*> players;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        auto player = std::make_unique<SchedulePlayer>(schedules[v]);
        players.push_back(player.get());
        nodes.push_back(std::move(player));
    }
    RoundEngine round_engine(g, model, base);
    round_engine.run(nodes, length);

    for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(players[v]->heard(), batch.hear(v, schedules))
            << model.describe() << " node " << v;
    }
}

TEST(ChannelModel, EnginesAgreeOnEveryModel) {
    expect_engines_agree(ChannelModel::iid(0.2), 3);
    expect_engines_agree(ChannelModel::gilbert_elliott(0.05, 0.25, 0.02, 0.45), 4);
    expect_engines_agree(ChannelModel::heterogeneous(0.05, 0.35, 0xabc), 5);
    expect_engines_agree(ChannelModel::adversarial_budget(9), 6);
}

TEST(ChannelModel, TransportWithNonIidChannelIsThreadInvariant) {
    Rng rng(21);
    const Graph g = make_erdos_renyi(24, 0.2, rng);
    Rng message_rng(3);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, 8);
    }
    for (const ChannelModel& model :
         {ChannelModel::gilbert_elliott(0.03, 0.15, 0.02, 0.35),
          ChannelModel::heterogeneous(0.02, 0.25, 0x9), ChannelModel::adversarial_budget(32)}) {
        SimulationParams params;
        params.epsilon = 0.1;  // design epsilon for the decoder thresholds
        params.channel = model;
        params.message_bits = 8;
        params.c_eps = 4;
        params.threads = 1;
        SimulationParams threaded_params = params;
        threaded_params.threads = 4;
        const BeepTransport serial(g, params);
        const BeepTransport threaded(g, threaded_params);
        for (std::uint64_t nonce = 0; nonce < 2; ++nonce) {
            const auto a = serial.simulate_round(messages, nonce);
            const auto b = threaded.simulate_round(messages, nonce);
            EXPECT_EQ(a.delivered, b.delivered) << model.describe();
            EXPECT_EQ(a.phase1_false_negatives, b.phase1_false_negatives);
            EXPECT_EQ(a.phase1_false_positives, b.phase1_false_positives);
            EXPECT_EQ(a.delivery_mismatches, b.delivery_mismatches);
        }
    }
}

TEST(ChannelModel, TdmaTransportAcceptsChannelModels) {
    Rng rng(31);
    const Graph g = make_erdos_renyi(16, 0.25, rng);
    Rng message_rng(4);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, 8);
    }
    TdmaParams params;
    params.epsilon = 0.1;
    params.channel = ChannelModel::gilbert_elliott(0.03, 0.2, 0.02, 0.3);
    params.message_bits = 8;
    params.repetitions = 9;
    params.threads = 1;
    const TdmaTransport transport(g, params);
    const auto round = transport.simulate_round(messages, 0);
    EXPECT_EQ(round.delivered.size(), g.node_count());
    // Determinism: the same nonce reproduces the same round.
    const auto again = transport.simulate_round(messages, 0);
    EXPECT_EQ(round.delivered, again.delivered);
    EXPECT_EQ(round.delivery_mismatches, again.delivery_mismatches);
}

TEST(ChannelModel, RejectsNonIidOwnBeepExemptionInEngines) {
    const Graph g = make_path(3);
    ChannelModel model = ChannelModel::heterogeneous(0.0, 0.2, 1);
    model.noise_on_own_beep = false;
    EXPECT_THROW(RoundEngine(g, model, Rng(1)), precondition_error);
    BatchParams params;
    params.channel = ChannelModel::iid(0.1, /*noise_on_own_beep=*/false);
    EXPECT_THROW(BatchEngine(g, params, Rng(1)), precondition_error);
}

}  // namespace
}  // namespace nb
