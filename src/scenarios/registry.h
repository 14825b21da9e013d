// Named scenario registry: the shipped specs `nb_run` executes, plus the
// spec builders the migrated sweep benches (E5/E6/E11) share with it —
// a bench sweep point and the registered spec of the same name are the
// same ScenarioSpec value, so their numbers agree by construction.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "scenarios/scenario.h"
#include "scenarios/sweep.h"

namespace nb::scenarios {

/// E5 (Theorem 11, Delta-scaling): one sweep point at the given degree on
/// the n=256 near-regular graph, on either transport.
ScenarioSpec e5_overhead_point(std::size_t degree, TransportKind transport);

/// E6 (Theorem 11, n-scaling): one sweep point at the given node count,
/// degree ~8.
ScenarioSpec e6_overhead_point(std::size_t n);

/// E11 (Section 1.3 noise sweep): n=64, Delta~8, the given noise rate and
/// constant, 8 rounds.
ScenarioSpec e11_noise_point(double epsilon, std::size_t c_eps);

/// All shipped specs, in display order: the bench-mirror points above plus
/// the non-i.i.d. channel showcases (Gilbert-Elliott bursts, PODS-style
/// per-node heterogeneity, adversarial erasure budgets) and a fault-window
/// scenario. Names are unique.
const std::vector<ScenarioSpec>& shipped_scenarios();

/// Large-n sharded-transport demos: ring topologies at n = 10^5 and 10^6
/// run through BeepTransport at 8 and 16 shards (the CI scale smoke
/// executes the latter).
/// Deliberately not part of shipped_scenarios(): the shipped sweep's job
/// count and runtime are pinned by tests and CI budgets. find_scenario()
/// resolves them, so `nb_run demo-shard-100k` works like any shipped name.
const std::vector<ScenarioSpec>& demo_scenarios();

/// The shipped or demo spec with this name, or nullptr.
const ScenarioSpec* find_scenario(std::string_view name);

/// The `nb_run --sweep` default: every shipped spec crossed with the given
/// workload seeds. The acceptance suite runs this sweep at worker counts 1
/// and 8 and pins byte-identical JSON plus strictly fewer codebook builds
/// than jobs (the n=64 specs with equal code parameters share one build).
SweepSpec shipped_sweep(std::vector<std::uint64_t> seeds = {1, 2, 3});

}  // namespace nb::scenarios
