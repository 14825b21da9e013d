#include "beep/channel_model.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/failpoint.h"

namespace nb {

namespace {

// Per-node per-phase whole-transcript noise application — the hottest seam a
// failpoint guards, which is why Site::check() must stay one relaxed load.
NB_FAILPOINT_DEFINE(fp_channel_sample, "channel.sample");

}  // namespace

ChannelModel ChannelModel::iid(double epsilon, bool noise_on_own_beep) {
    ChannelModel model;
    model.kind = ChannelModelKind::iid;
    model.epsilon = epsilon;
    model.noise_on_own_beep = noise_on_own_beep;
    return model;
}

ChannelModel ChannelModel::gilbert_elliott(double p_enter_burst, double p_exit_burst,
                                           double epsilon_good, double epsilon_bad) {
    ChannelModel model;
    model.kind = ChannelModelKind::gilbert_elliott;
    model.ge_p_enter_burst = p_enter_burst;
    model.ge_p_exit_burst = p_exit_burst;
    model.ge_epsilon_good = epsilon_good;
    model.ge_epsilon_bad = epsilon_bad;
    return model;
}

ChannelModel ChannelModel::heterogeneous(double epsilon_min, double epsilon_max,
                                         std::uint64_t seed) {
    ChannelModel model;
    model.kind = ChannelModelKind::heterogeneous;
    model.het_epsilon_min = epsilon_min;
    model.het_epsilon_max = epsilon_max;
    model.het_seed = seed;
    return model;
}

ChannelModel ChannelModel::adversarial_budget(std::size_t budget) {
    ChannelModel model;
    model.kind = ChannelModelKind::adversarial_budget;
    model.adv_budget = budget;
    return model;
}

bool ChannelModel::noiseless() const noexcept {
    switch (kind) {
        case ChannelModelKind::iid:
            return epsilon == 0.0;
        case ChannelModelKind::gilbert_elliott:
            return ge_epsilon_good == 0.0 && ge_epsilon_bad == 0.0;
        case ChannelModelKind::heterogeneous:
            return het_epsilon_max == 0.0;
        case ChannelModelKind::adversarial_budget:
            return adv_budget == 0;
    }
    return true;
}

double ChannelModel::node_epsilon(std::uint64_t node) const {
    switch (kind) {
        case ChannelModelKind::iid:
            return epsilon;
        case ChannelModelKind::heterogeneous: {
            if (het_epsilon_min == het_epsilon_max) {
                return het_epsilon_min;
            }
            // One deterministic uniform draw keyed by (seed, node): stable
            // across rounds, engines, and thread schedules.
            Rng per_node = Rng(het_seed).derive(0x68657465u, node);
            return het_epsilon_min +
                   per_node.next_double() * (het_epsilon_max - het_epsilon_min);
        }
        default:
            throw precondition_error(
                "ChannelModel::node_epsilon: model has no per-node iid rate");
    }
}

double ChannelModel::design_epsilon() const {
    double eps = 0.0;
    switch (kind) {
        case ChannelModelKind::iid:
            eps = epsilon;
            break;
        case ChannelModelKind::gilbert_elliott: {
            // Stationary state distribution of the two-state chain:
            // P(bad) = p_enter / (p_enter + p_exit).
            const double total = ge_p_enter_burst + ge_p_exit_burst;
            const double p_bad = total > 0.0 ? ge_p_enter_burst / total : 0.0;
            eps = (1.0 - p_bad) * ge_epsilon_good + p_bad * ge_epsilon_bad;
            break;
        }
        case ChannelModelKind::heterogeneous:
            eps = 0.5 * (het_epsilon_min + het_epsilon_max);
            break;
        case ChannelModelKind::adversarial_budget:
            eps = 0.0;
            break;
    }
    return std::min(eps, 0.49);
}

std::optional<GeometricSkipTable> ChannelModel::skip_table() const {
    if (kind != ChannelModelKind::iid || epsilon == 0.0) {
        return std::nullopt;
    }
    return GeometricSkipTable(epsilon);
}

void ChannelModel::validate() const {
    switch (kind) {
        case ChannelModelKind::iid:
            require(epsilon >= 0.0 && epsilon < 0.5,
                    "ChannelModel: iid epsilon must be in [0, 1/2)");
            break;
        case ChannelModelKind::gilbert_elliott:
            require(ge_p_enter_burst > 0.0 && ge_p_enter_burst <= 1.0,
                    "ChannelModel: gilbert_elliott p_enter_burst must be in (0, 1]");
            require(ge_p_exit_burst > 0.0 && ge_p_exit_burst <= 1.0,
                    "ChannelModel: gilbert_elliott p_exit_burst must be in (0, 1]");
            // Burst-state noise may exceed 1/2 — that is the point of a
            // burst; only the decoder's design epsilon must stay below it.
            require(ge_epsilon_good >= 0.0 && ge_epsilon_good <= 1.0,
                    "ChannelModel: gilbert_elliott epsilon_good must be in [0, 1]");
            require(ge_epsilon_bad >= 0.0 && ge_epsilon_bad <= 1.0,
                    "ChannelModel: gilbert_elliott epsilon_bad must be in [0, 1]");
            break;
        case ChannelModelKind::heterogeneous:
            require(het_epsilon_min >= 0.0 && het_epsilon_min <= het_epsilon_max &&
                        het_epsilon_max < 0.5,
                    "ChannelModel: heterogeneous rates need 0 <= min <= max < 1/2");
            break;
        case ChannelModelKind::adversarial_budget:
            break;  // any budget is valid
    }
    require(is_iid() || noise_on_own_beep,
            "ChannelModel: only the iid model supports noise_on_own_beep = false");
}

const char* ChannelModel::kind_name() const noexcept {
    switch (kind) {
        case ChannelModelKind::iid:
            return "iid";
        case ChannelModelKind::gilbert_elliott:
            return "gilbert_elliott";
        case ChannelModelKind::heterogeneous:
            return "heterogeneous";
        case ChannelModelKind::adversarial_budget:
            return "adversarial_budget";
    }
    return "unknown";
}

std::string ChannelModel::describe() const {
    char buffer[160];
    switch (kind) {
        case ChannelModelKind::iid:
            std::snprintf(buffer, sizeof buffer, "iid(eps=%.3g)", epsilon);
            break;
        case ChannelModelKind::gilbert_elliott:
            std::snprintf(buffer, sizeof buffer,
                          "gilbert_elliott(enter=%.3g, exit=%.3g, eps_good=%.3g, "
                          "eps_bad=%.3g)",
                          ge_p_enter_burst, ge_p_exit_burst, ge_epsilon_good,
                          ge_epsilon_bad);
            break;
        case ChannelModelKind::heterogeneous:
            std::snprintf(buffer, sizeof buffer, "heterogeneous(eps=[%.3g, %.3g])",
                          het_epsilon_min, het_epsilon_max);
            break;
        case ChannelModelKind::adversarial_budget:
            std::snprintf(buffer, sizeof buffer, "adversarial_budget(k=%zu)", adv_budget);
            break;
    }
    return buffer;
}

ChannelNoiseSampler::ChannelNoiseSampler(const ChannelModel& model, std::uint64_t node,
                                         Rng rng)
    : model_(model), rng_(rng) {
    switch (model_.kind) {
        case ChannelModelKind::iid:
            epsilon_ = model_.epsilon;
            break;
        case ChannelModelKind::heterogeneous:
            epsilon_ = model_.node_epsilon(node);
            break;
        case ChannelModelKind::gilbert_elliott:
            in_burst_ = false;  // transcripts start in the good state
            break;
        case ChannelModelKind::adversarial_budget:
            budget_left_ = model_.adv_budget;
            break;
    }
}

bool ChannelNoiseSampler::flip_next(bool received) {
    switch (model_.kind) {
        case ChannelModelKind::iid:
        case ChannelModelKind::heterogeneous:
            return rng_.bernoulli(epsilon_);
        case ChannelModelKind::gilbert_elliott: {
            // Emit under the current state, then advance the chain — one
            // flip draw plus one transition draw per beep round, so the
            // round-at-a-time and batch paths consume identical streams.
            const bool flip =
                rng_.bernoulli(in_burst_ ? model_.ge_epsilon_bad : model_.ge_epsilon_good);
            const double transition =
                in_burst_ ? model_.ge_p_exit_burst : model_.ge_p_enter_burst;
            if (rng_.bernoulli(transition)) {
                in_burst_ = !in_burst_;
            }
            return flip;
        }
        case ChannelModelKind::adversarial_budget:
            if (received && budget_left_ > 0) {
                --budget_left_;
                return true;
            }
            return false;
    }
    return false;
}

void ChannelNoiseSampler::apply(Bitstring& transcript, bool dense,
                                const GeometricSkipTable* skip_table) {
    fp_channel_sample.check();
    switch (model_.kind) {
        case ChannelModelKind::iid:
        case ChannelModelKind::heterogeneous:
            // The exact draws the original hard-wired iid noise consumed —
            // same rng, same skip map — so iid outputs are bit-identical to
            // the pre-ChannelModel implementation.
            if (dense) {
                transcript.apply_noise_dense(rng_, epsilon_);
            } else if (skip_table != nullptr) {
                transcript.apply_noise(rng_, *skip_table);
            } else {
                transcript.apply_noise(rng_, epsilon_);
            }
            return;
        case ChannelModelKind::gilbert_elliott: {
            // flip_next's draws in flip_next's order (a flip draw under the
            // current state, then a transition draw), each bernoulli(p) as
            // its exact integer compare, and each word's flips XORed in as
            // one mask. Index 0 is the good state, 1 the burst.
            const std::uint64_t flip_below[2] = {
                Rng::bernoulli_threshold(model_.ge_epsilon_good),
                Rng::bernoulli_threshold(model_.ge_epsilon_bad)};
            const std::uint64_t switch_below[2] = {
                Rng::bernoulli_threshold(model_.ge_p_enter_burst),
                Rng::bernoulli_threshold(model_.ge_p_exit_burst)};
            const auto sample = [&](auto trial) {
                std::size_t state = in_burst_ ? 1 : 0;
                const std::size_t size = transcript.size();
                for (std::size_t pos = 0; pos < size; pos += 64) {
                    const std::size_t width = std::min<std::size_t>(64, size - pos);
                    std::uint64_t flips = 0;
                    for (std::size_t i = 0; i < width; ++i) {
                        flips |= std::uint64_t{trial(flip_below[state])} << i;
                        state ^= std::size_t{trial(switch_below[state])};
                    }
                    if (flips != 0) {
                        transcript.store_bits(pos, transcript.load_bits(pos, width) ^ flips,
                                              width);
                    }
                }
                in_burst_ = state == 1;
            };
            // With every rate strictly inside (0, 1), every trial draws, and
            // the compare needs no check for the no-draw rates 0 and 1.
            const auto draws = [](std::uint64_t t) {
                return t != 0 && t != Rng::kBernoulliAlways;
            };
            if (draws(flip_below[0]) && draws(flip_below[1]) && draws(switch_below[0]) &&
                draws(switch_below[1])) {
                sample([this](std::uint64_t t) { return (rng_.next_u64() >> 11) < t; });
            } else {
                sample([this](std::uint64_t t) { return rng_.bernoulli_below(t); });
            }
            return;
        }
        case ChannelModelKind::adversarial_budget: {
            // Erase the earliest `budget` heard 1s. for_each_one tolerates
            // clearing the current bit (it walks a word copy).
            std::size_t remaining = budget_left_;
            transcript.for_each_one([&](std::size_t position) {
                if (remaining > 0) {
                    transcript.set(position, false);
                    --remaining;
                }
            });
            budget_left_ = remaining;
            return;
        }
    }
}

}  // namespace nb
