// Failpoint framework tests (common/failpoint.h): registry completeness,
// the NB_FAILPOINTS spec parser, deterministic probability draws, max_hits
// budgets — and the site sweep the framework exists for: every registered
// site armed with `throw` and `oom` in turn while real work runs through
// it, under ASan/UBSan in the sanitizer CI job, proving each seam unwinds
// cleanly (no leaks, no double frees, pool still usable) whichever fault
// fires there.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "scenarios/registry.h"
#include "scenarios/scenario.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "sim/codebook_cache.h"

namespace nb {
namespace {

using failpoint::Config;
using failpoint::Mode;

/// Every test leaves the process-wide registry disarmed, whatever happened.
class FailpointTest : public ::testing::Test {
protected:
    // Start from a cold codebook cache so sites inside the build path
    // (codebook.build, cache.insert) actually execute — a warm cache from an
    // earlier test would satisfy the lookup without ever crossing them.
    void SetUp() override { CodebookCache::instance().clear(); }
    void TearDown() override { failpoint::clear_all(); }
};

/// A fast scenario whose execution crosses every runtime site: a beep
/// transport (codebook.build via the cache: cache.insert on the miss) with
/// real noise (channel.sample) run through the sweep engine (sweep.job).
ScenarioSpec noisy_base(const std::string& name) {
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

TEST_F(FailpointTest, RegistrySweepCoversEveryShippedSite) {
    // The full site registry, fixed here on purpose: adding a site without
    // extending the sweep below (or removing one silently) fails this test.
    const std::vector<std::string> expected = {
        "cache.evict",    "cache.insert", "channel.sample", "codebook.build",
        "scenario.parse", "serve.accept", "serve.job",      "shard.exchange",
        "store.put",      "sweep.job",
    };
    EXPECT_EQ(failpoint::registered_sites(), expected);
}

TEST_F(FailpointTest, ParseSpecAcceptsEveryModeAndRejectsGarbage) {
    auto [site, config] = failpoint::parse_spec("codebook.build=throw");
    EXPECT_EQ(site, "codebook.build");
    EXPECT_EQ(config.mode, Mode::inject_throw);
    EXPECT_EQ(config.probability, 1.0);

    std::tie(site, config) = failpoint::parse_spec("sweep.job=throw:0.25");
    EXPECT_EQ(config.mode, Mode::inject_throw);
    EXPECT_EQ(config.probability, 0.25);

    std::tie(site, config) = failpoint::parse_spec("sweep.job=delay:40");
    EXPECT_EQ(config.mode, Mode::delay);
    EXPECT_EQ(config.delay_ms, 40u);

    std::tie(site, config) = failpoint::parse_spec("cache.insert=oom:0.5");
    EXPECT_EQ(config.mode, Mode::oom);
    EXPECT_EQ(config.probability, 0.5);

    EXPECT_THROW(failpoint::parse_spec("no-equals"), precondition_error);
    EXPECT_THROW(failpoint::parse_spec("s=explode"), precondition_error);
    EXPECT_THROW(failpoint::parse_spec("s=throw:1.5"), precondition_error);
    EXPECT_THROW(failpoint::parse_spec("s=throw:0"), precondition_error);
    EXPECT_THROW(failpoint::parse_spec("s=delay"), precondition_error);
    EXPECT_THROW(failpoint::parse_spec("s=delay:abc"), precondition_error);
}

TEST_F(FailpointTest, ConfigureRequiresAKnownSite) {
    Config config;
    config.mode = Mode::inject_throw;
    EXPECT_THROW(failpoint::configure("no.such.site", config), precondition_error);
}

TEST_F(FailpointTest, MaxHitsBudgetHealsTheSite) {
    // fail twice, then heal — the transient-fault model the retry property
    // tests lean on. codebook.build fires inside Codebook's constructor, so
    // drive it through uncached private builds.
    Config config;
    config.mode = Mode::inject_throw;
    config.max_hits = 2;
    failpoint::configure("codebook.build", config);
    const std::uint64_t hits_before = failpoint::hits("codebook.build");

    ScenarioSpec spec = noisy_base("budget");
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            run_scenario(spec);
            FAIL() << "attempt " << attempt << " should have hit the failpoint";
        } catch (const failpoint::injected_fault& fault) {
            EXPECT_EQ(fault.site(), "codebook.build");
        }
    }
    // Budget exhausted: the same call now succeeds.
    const ScenarioResult result = run_scenario(spec);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(failpoint::hits("codebook.build") - hits_before, 2u);
}

TEST_F(FailpointTest, OomModeThrowsBadAlloc) {
    Config config;
    config.mode = Mode::oom;
    config.max_hits = 1;
    failpoint::configure("codebook.build", config);
    EXPECT_THROW(run_scenario(noisy_base("oom")), std::bad_alloc);
    // Healed after the budget.
    EXPECT_EQ(run_scenario(noisy_base("oom")).rounds, 2u);
}

TEST_F(FailpointTest, ActiveSummaryNamesArmedSites) {
    EXPECT_EQ(failpoint::active_summary(), "");
    Config config;
    config.mode = Mode::inject_throw;
    config.probability = 0.5;
    failpoint::configure("sweep.job", config);
    const std::string summary = failpoint::active_summary();
    EXPECT_NE(summary.find("sweep.job"), std::string::npos);
    EXPECT_NE(summary.find("0.5"), std::string::npos);
    failpoint::clear("sweep.job");
    EXPECT_EQ(failpoint::active_summary(), "");
}

// The site sweep: arm every registered site with `throw` then `oom` (budget
// 1) and push real work through the whole stack with enough retry budget to
// absorb the fire. Whatever the seam — mid-constructor, under the cache's
// shard lock, inside the parser — the fault must unwind cleanly and the
// retried run must produce the byte-identical artifact (the parse site is
// exercised separately below: it fires before any sweep exists).
TEST_F(FailpointTest, EverySiteSurvivesInjectedThrowAndOomWithRetries) {
    SweepSpec sweep;
    sweep.name = "site-sweep";
    sweep.bases = {noisy_base("job")};
    // Sharded execution so the shard.exchange site sits on the job's real
    // code path (it fires once per round of a multi-shard BeepTransport).
    sweep.bases[0].shards = 2;
    sweep.axes.seeds = {1, 2};
    sweep.max_retries = 2;

    SweepOptions options;
    options.workers = 2;

    CodebookCache::instance().clear();
    const std::string clean = sweep_json(run_sweep(sweep, options));

    for (const std::string& site : failpoint::registered_sites()) {
        if (site == "scenario.parse") {
            continue;  // fires outside run_sweep; covered below
        }
        if (site == "serve.accept" || site == "serve.job" || site == "store.put") {
            continue;  // fire in the nb_serve layer, outside run_sweep;
                       // covered by test_serve.cpp / test_store.cpp
        }
        for (const Mode mode : {Mode::inject_throw, Mode::oom}) {
            SCOPED_TRACE(site + (mode == Mode::oom ? " oom" : " throw"));
            Config config;
            config.mode = mode;
            config.max_hits = 1;
            failpoint::configure(site, config);

            CodebookCache::instance().clear();
            const SweepResult result = run_sweep(sweep, options);
            failpoint::clear(site);

            EXPECT_EQ(result.failed_jobs, 0u);
            EXPECT_EQ(sweep_json(result), clean);
        }
    }
}

TEST_F(FailpointTest, ParseSiteInjectsAtTheSpecBoundary) {
    Config config;
    config.mode = Mode::inject_throw;
    config.max_hits = 1;
    failpoint::configure("scenario.parse", config);
    const std::string text = R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x"}]})";
    EXPECT_THROW(sweep_spec_from_json(text, "mem"), failpoint::injected_fault);
    // Budget spent: the identical call now parses.
    const SweepSpec spec = sweep_spec_from_json(text, "mem");
    ASSERT_EQ(spec.bases.size(), 1u);
    EXPECT_EQ(spec.bases[0].name, "x");
}

}  // namespace
}  // namespace nb
