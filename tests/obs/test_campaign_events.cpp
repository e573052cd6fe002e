/**
 * @file
 * Integration test: the instrumented characterization pipeline must
 * surface its work in the global stats registry and the JSONL event
 * stream — profile, thermal settle and measurement events, per-thread
 * core counters, cache hit/miss counts and phase timings.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "obs/events.hh"
#include "obs/span.hh"
#include "obs/stats.hh"

namespace dfault::core {
namespace {

struct InstrumentedRun
{
    std::string tracePath;
    std::vector<std::string> lines;
    Measurement measurement;

    InstrumentedRun()
    {
        tracePath = ::testing::TempDir() + "dfault_campaign_events.jsonl";
        obs::EventSink::instance().open(tracePath);

        sys::Platform::Params pp;
        pp.hierarchy.l1.sizeBytes = 16 * 1024;
        pp.hierarchy.l2.sizeBytes = 1 << 20;
        pp.exec.timeDilation = sys::dilationForFootprint(4 << 20);
        sys::Platform platform(pp);

        CharacterizationCampaign::Params cp;
        cp.workload.footprintBytes = 4 << 20;
        cp.workload.workScale = 0.5;
        cp.integrator.epochs = 20;
        CharacterizationCampaign campaign(platform, cp);

        measurement = campaign.measure(
            {"backprop", 8, "backprop(par)"},
            {2.283, dram::kMinVdd, 60.0});

        obs::EventSink::instance().close();
        std::ifstream in(tracePath);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        std::remove(tracePath.c_str());
    }

    bool
    hasEvent(const std::string &type, const std::string &fragment) const
    {
        const std::string tag = "\"type\":\"" + type + "\"";
        for (const auto &line : lines)
            if (line.find(tag) != std::string::npos &&
                line.find(fragment) != std::string::npos)
                return true;
        return false;
    }
};

InstrumentedRun &
run()
{
    static InstrumentedRun r;
    return r;
}

TEST(CampaignEvents, MeasurementAppearsInEventStream)
{
    auto &r = run();
    ASSERT_FALSE(r.lines.empty());
    EXPECT_TRUE(r.hasEvent("profile", "\"label\":\"backprop(par)\""));
    EXPECT_TRUE(r.hasEvent("thermal_settle", "\"settled\":true"));
    EXPECT_TRUE(
        r.hasEvent("measurement", "\"label\":\"backprop(par)\""));
    EXPECT_TRUE(r.hasEvent("measurement", "\"trefp_s\":2.283"));
}

TEST(CampaignEvents, EveryLineCarriesTheEnvelope)
{
    auto &r = run();
    std::uint64_t expected_seq = 0;
    for (const auto &line : r.lines) {
        EXPECT_TRUE(line.starts_with("{\"type\":\"")) << line;
        EXPECT_NE(line.find("\"seq\":" + std::to_string(expected_seq)),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
        EXPECT_TRUE(line.ends_with("}")) << line;
        ++expected_seq;
    }
}

TEST(CampaignEvents, RegistryHoldsCoreAndCacheCounters)
{
    run();
    auto &reg = obs::Registry::instance();

    // Per-thread execution counters (8 worker threads).
    for (int t = 0; t < 8; ++t) {
        const std::string prefix =
            "platform.core." + std::to_string(t) + ".";
        EXPECT_GT(reg.value(prefix + "instructions"), 0.0) << prefix;
        EXPECT_GT(reg.value(prefix + "cycles"), 0.0) << prefix;
    }

    // Cache hierarchy hit/miss counts and the derived miss rate.
    EXPECT_GT(reg.value("platform.mem.l1.hits"), 0.0);
    EXPECT_GT(reg.value("platform.mem.l1.misses"), 0.0);
    EXPECT_GT(reg.value("platform.mem.l2.misses"), 0.0);
    const double l1_rate = reg.value("platform.mem.l1.miss_rate");
    EXPECT_GT(l1_rate, 0.0);
    EXPECT_LT(l1_rate, 1.0);

    // Campaign-level accounting.
    EXPECT_GE(reg.value("campaign.measurements"), 1.0);
    EXPECT_GE(reg.value("thermal.settles"), 1.0);
    EXPECT_GE(reg.value("integrator.epochs"), 20.0);
}

TEST(CampaignEvents, PhaseTimersCoverThePipeline)
{
    run();
    auto &reg = obs::Registry::instance();
    for (const char *phase :
         {"time.profile.seconds", "time.thermal_settle.seconds",
          "time.integrate.seconds"}) {
        ASSERT_TRUE(reg.has(phase)) << phase;
        EXPECT_GT(reg.value(phase), 0.0) << phase;
    }
}

TEST(CampaignEvents, DramErrorsAreAccounted)
{
    auto &r = run();
    auto &reg = obs::Registry::instance();
    // The 60C long-TREFP point manifests CEs; the integrator publishes
    // the unique-word total it derived.
    EXPECT_GT(r.measurement.run.wer(), 0.0);
    EXPECT_GT(reg.value("dram.ce_unique_words"), 0.0);
}

} // namespace
} // namespace dfault::core
