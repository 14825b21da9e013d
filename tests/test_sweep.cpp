// Determinism and contract tests for the sweep engine (scenarios/sweep.h):
// expansion order and axis semantics, byte-identical nb-sweep/v1 JSON across
// worker counts (including the shipped 8-specs x 3-seeds acceptance sweep),
// the codebook-sharing acceptance pin (strictly fewer builds than scenario
// jobs), and byte-identity with sweep workers and transport pools nested.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "scenarios/registry.h"
#include "scenarios/sweep.h"
#include "sim/codebook_cache.h"

namespace nb {
namespace {

/// A deliberately small base so multi-axis sweeps stay fast.
ScenarioSpec tiny_base(const std::string& name) {
    ScenarioSpec spec;
    spec.name = name;
    spec.topology.family = TopologySpec::Family::random_regular;
    spec.topology.n = 16;
    spec.topology.degree = 4;
    spec.topology.seed = 7;
    spec.channel = ChannelModel::iid(0.1);
    spec.workload.message_bits = 4;
    spec.workload.seed = 3;
    spec.rounds = 2;
    return spec;
}

std::string sweep_json(const SweepResult& result) {
    std::ostringstream out;
    JsonWriter json(out);
    sweep_results_json(json, result);
    return out.str();
}

TEST(SweepSpec, ExpansionOrderNamesAndAxisSemantics) {
    SweepSpec sweep;
    sweep.name = "axes";
    sweep.bases = {tiny_base("a"), tiny_base("b")};
    sweep.axes.epsilons = {0.05, 0.2};
    sweep.axes.seeds = {9, 11};

    EXPECT_EQ(sweep.job_count(), 8u);
    const std::vector<ScenarioSpec> jobs = sweep.expand();
    ASSERT_EQ(jobs.size(), 8u);

    // Fixed nested order: base outermost, seed innermost.
    EXPECT_EQ(jobs[0].name, "a/eps=0.05/seed=9");
    EXPECT_EQ(jobs[1].name, "a/eps=0.05/seed=11");
    EXPECT_EQ(jobs[2].name, "a/eps=0.2/seed=9");
    EXPECT_EQ(jobs[5].name, "b/eps=0.05/seed=11");
    EXPECT_EQ(jobs[7].name, "b/eps=0.2/seed=11");

    // The epsilon axis replaces the channel with iid(eps) and lets the
    // decoder derive its design rate; the seed axis drives the workload.
    EXPECT_EQ(jobs[2].channel, ChannelModel::iid(0.2));
    EXPECT_EQ(jobs[2].decoder_epsilon, -1.0);
    EXPECT_EQ(jobs[2].workload.seed, 9u);
    EXPECT_EQ(jobs[1].workload.seed, 11u);

    // An empty axis keeps the base value.
    EXPECT_EQ(jobs[0].topology.n, 16u);
}

TEST(SweepSpec, NodeCountAndChannelAndTopologyAxes) {
    SweepSpec sweep;
    sweep.name = "axes2";
    sweep.bases = {tiny_base("t")};
    TopologySpec ring;
    ring.family = TopologySpec::Family::ring;
    ring.n = 12;
    sweep.axes.topologies = {ring};
    sweep.axes.node_counts = {12, 24};
    sweep.axes.channels = {ChannelModel::iid(0.0), ChannelModel::adversarial_budget(4)};

    const std::vector<ScenarioSpec> jobs = sweep.expand();
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].topology.family, TopologySpec::Family::ring);
    EXPECT_EQ(jobs[0].topology.n, 12u);
    EXPECT_EQ(jobs[3].topology.n, 24u);
    EXPECT_EQ(jobs[3].channel, ChannelModel::adversarial_budget(4));
    EXPECT_EQ(jobs[1].name, "t/top=ring(n=12)/n=12/ch=adversarial_budget(k=4)");
}

TEST(SweepSpec, ValidateRejectsBadSpecs) {
    SweepSpec empty;
    empty.name = "empty";
    EXPECT_THROW(empty.validate(), precondition_error);

    SweepSpec duplicate;
    duplicate.name = "dup";
    duplicate.bases = {tiny_base("same"), tiny_base("same")};
    EXPECT_THROW(duplicate.validate(), precondition_error);

    // channels and epsilons both drive the channel model; combining them
    // would let one silently overwrite the other under the other's label.
    SweepSpec both;
    both.name = "both";
    both.bases = {tiny_base("b")};
    both.axes.channels = {ChannelModel::iid(0.0)};
    both.axes.epsilons = {0.1};
    EXPECT_THROW(both.validate(), precondition_error);

    // The n axis cannot drive a grid (its size is rows x cols): a silent
    // no-op axis would mislabel every result.
    SweepSpec grid;
    grid.name = "grid";
    grid.bases = {tiny_base("g")};
    grid.bases[0].topology.family = TopologySpec::Family::grid;
    grid.bases[0].topology.rows = 4;
    grid.bases[0].topology.cols = 4;
    grid.axes.node_counts = {16, 32};
    EXPECT_THROW(grid.validate(), precondition_error);
}

TEST(SweepDeterminism, MultiAxisJsonByteIdenticalAcrossWorkerCounts) {
    SweepSpec sweep;
    sweep.name = "tiny-multi-axis";
    sweep.bases = {tiny_base("t")};
    sweep.axes.epsilons = {0.0, 0.1};
    sweep.axes.seeds = {1, 2, 3};
    sweep.axes.node_counts = {16, 20};

    std::string reference;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        // A fresh cache per run: the counter block in the JSON is a delta,
        // deterministic only from equal starting states.
        CodebookCache::instance().clear();
        SweepOptions options;
        options.workers = workers;
        const SweepResult result = run_sweep(sweep, options);
        EXPECT_EQ(result.jobs, 12u);
        const std::string json = sweep_json(result);
        if (reference.empty()) {
            reference = json;
        } else {
            EXPECT_EQ(json, reference) << "workers=" << workers;
        }
    }
}

TEST(SweepDeterminism, ResultsLandInExpandOrder) {
    SweepSpec sweep;
    sweep.name = "order";
    sweep.bases = {tiny_base("t")};
    sweep.axes.seeds = {5, 6, 7, 8};
    SweepOptions options;
    options.workers = 4;
    const SweepResult result = run_sweep(sweep, options);
    const std::vector<ScenarioSpec> jobs = sweep.expand();
    ASSERT_EQ(result.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(result.results[i].name, jobs[i].name);
    }
}

TEST(SweepAcceptance, ShippedSweepByteIdenticalAndSharesCodebookBuilds) {
    // The PR acceptance pin: all 8 shipped registry specs x 3 seeds,
    // executed at worker counts 1 and 8, must serialize to byte-identical
    // nb-sweep/v1 JSON, and the cache counters must show strictly fewer
    // codebook builds than scenario jobs.
    const SweepSpec sweep = scenarios::shipped_sweep({1, 2, 3});
    ASSERT_EQ(sweep.bases.size(), 8u);

    std::string reference;
    for (const std::size_t workers : {1u, 8u}) {
        CodebookCache::instance().clear();
        SweepOptions options;
        options.workers = workers;
        const SweepResult result = run_sweep(sweep, options);
        EXPECT_EQ(result.jobs, 24u);

        // Strictly fewer builds than scenario-runs: the beep jobs share 4
        // codebooks (seeds never change the key; several specs also agree
        // on graph and code parameters), the TDMA jobs one coloring.
        EXPECT_LT(result.cache.builds + result.cache.coloring_builds, result.jobs);
        EXPECT_GT(result.cache.hits, result.cache.builds);

        const std::string json = sweep_json(result);
        if (reference.empty()) {
            reference = json;
        } else {
            EXPECT_EQ(json, reference) << "workers=" << workers;
        }
    }
}

TEST(SweepNestedPools, ScenarioSubsetByteIdentical) {
    // Sweep workers that each drive a multi-threaded transport pool — the
    // shape nb_serve runs with job_workers > 1 — over the GE, heterogeneous,
    // TDMA and fault paths: the bytes must match a fully serial run.
    SweepSpec sweep;
    sweep.name = "nested-pools";
    for (const char* name : {"ge-burst", "het-pernode", "e5-delta8-tdma", "faults-midrun"}) {
        const ScenarioSpec* spec = scenarios::find_scenario(name);
        ASSERT_NE(spec, nullptr) << name;
        sweep.bases.push_back(*spec);
    }

    std::string reference;
    for (const std::size_t parallel : {1u, 2u}) {
        SweepOptions options;
        options.workers = parallel;
        options.threads_per_job = parallel;
        const SweepResult result = run_sweep(sweep, options);
        EXPECT_EQ(result.failed_jobs, 0u);
        const std::string json = sweep_json(result);
        if (reference.empty()) {
            reference = json;
        } else {
            EXPECT_EQ(json, reference);
        }
    }
}

}  // namespace
}  // namespace nb
