/**
 * @file
 * Unit tests for the sweep checkpoint: config digesting, cell JSON
 * round trips, and the cell loader's handling of corrupt, stale,
 * mislabelled and out-of-range cell records in the record store.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/checkpoint.hh"
#include "fi/durable.hh"
#include "obs/deferral.hh"
#include "obs/record_store.hh"

namespace dfault::core {
namespace {

CharacterizationCampaign::Params
someParams()
{
    CharacterizationCampaign::Params p;
    p.workload.footprintBytes = 4 << 20;
    p.workload.workScale = 0.5;
    p.integrator.epochs = 30;
    return p;
}

std::vector<workloads::WorkloadConfig>
someSuite()
{
    return {{"kmeans", 8, "kmeans(par)"}, {"srad", 1, "srad"}};
}

std::vector<dram::OperatingPoint>
somePoints()
{
    return {{1.173, 1.428, 50.0}, {2.283, 1.428, 60.0}};
}

Measurement
someMeasurement()
{
    Measurement m;
    m.label = "kmeans(par)";
    m.threads = 8;
    m.requested = {1.173, 1.428, 50.0};
    m.achieved = {1.173, 1.428, 50.37};
    m.run.werSeries = {1e-9, 2.5e-9, 0.1 + 0.2}; // non-trivial double
    m.run.cePerDevice = {3.0, 0.0};
    m.run.wordsPerDevice = {1024.0, 1024.0};
    m.run.crashed = true;
    m.run.crashEpoch = 17;
    m.run.crashDevice = 1;
    m.run.expectedSdc = 0.125;
    m.run.allocatedWords = 2048.0;
    return m;
}

/** Record @p cell in @p store the way sweep() does. */
bool
storeCell(const obs::RecordStore &store, const CheckpointCell &cell)
{
    return store.write(kCheckpointCell, cell.cell,
                       checkpointCellJson(cell, store.digest()) + "\n");
}

struct JournalTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_ckpt_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();

    void TearDown() override { std::filesystem::remove_all(dir); }
};

TEST(ConfigDigest, StableForIdenticalConfigs)
{
    EXPECT_EQ(sweepConfigDigest(someParams(), someSuite(), somePoints()),
              sweepConfigDigest(someParams(), someSuite(), somePoints()));
}

TEST(ConfigDigest, SensitiveToEveryResultParameter)
{
    const auto base =
        sweepConfigDigest(someParams(), someSuite(), somePoints());

    auto p = someParams();
    p.integrator.epochs = 31;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    p = someParams();
    p.workload.workScale = 0.75;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    p = someParams();
    p.useThermalLoop = !p.useThermalLoop;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    auto suite = someSuite();
    suite[0].threads = 4;
    EXPECT_NE(sweepConfigDigest(someParams(), suite, somePoints()), base);

    auto points = somePoints();
    points[1].temperature = 70.0;
    EXPECT_NE(sweepConfigDigest(someParams(), someSuite(), points), base);
}

TEST(ConfigDigest, IndependentOfResilienceKnobs)
{
    // Retry/quarantine/checkpoint settings do not change results, so a
    // journal must survive changing them between runs.
    const auto base =
        sweepConfigDigest(someParams(), someSuite(), somePoints());
    auto p = someParams();
    p.taskRetries = 9;
    p.failFast = true;
    p.checkpointDir = "/somewhere/else";
    EXPECT_EQ(sweepConfigDigest(p, someSuite(), somePoints()), base);
}

TEST(CheckpointCellJson, RoundTripIsExact)
{
    CheckpointCell cell;
    cell.cell = 3;
    cell.measurement = someMeasurement();
    cell.statOps.push_back(
        {obs::StatOp::Kind::CounterInc, "campaign.measurements",
         "characterization experiments completed", 1.0});
    cell.statOps.push_back({obs::StatOp::Kind::DistRecord,
                            "campaign.wer_log10", "log10 of WER",
                            -8.7654321012345678, -14.0, 0.0, 28});

    const std::uint64_t digest = 0xabcdef0123456789ULL;
    const std::string text = checkpointCellJson(cell, digest);

    CheckpointCell loaded;
    std::string error;
    ASSERT_TRUE(checkpointCellFromJson(text, digest, loaded, &error))
        << error;
    EXPECT_EQ(loaded.cell, 3u);
    const Measurement &m = loaded.measurement;
    const Measurement want = someMeasurement();
    EXPECT_EQ(m.label, want.label);
    EXPECT_EQ(m.threads, want.threads);
    EXPECT_DOUBLE_EQ(m.requested.trefp, want.requested.trefp);
    EXPECT_DOUBLE_EQ(m.achieved.temperature, want.achieved.temperature);
    ASSERT_EQ(m.run.werSeries.size(), want.run.werSeries.size());
    for (std::size_t i = 0; i < want.run.werSeries.size(); ++i)
        EXPECT_EQ(m.run.werSeries[i], want.run.werSeries[i])
            << "bit-exact double round trip";
    EXPECT_EQ(m.run.cePerDevice, want.run.cePerDevice);
    EXPECT_EQ(m.run.crashed, want.run.crashed);
    EXPECT_EQ(m.run.crashEpoch, want.run.crashEpoch);
    EXPECT_EQ(m.run.crashDevice, want.run.crashDevice);
    EXPECT_EQ(m.run.expectedSdc, want.run.expectedSdc);
    EXPECT_EQ(m.run.allocatedWords, want.run.allocatedWords);

    ASSERT_EQ(loaded.statOps.size(), 2u);
    EXPECT_EQ(loaded.statOps[0].kind, obs::StatOp::Kind::CounterInc);
    EXPECT_EQ(loaded.statOps[0].name, "campaign.measurements");
    EXPECT_EQ(loaded.statOps[1].kind, obs::StatOp::Kind::DistRecord);
    EXPECT_EQ(loaded.statOps[1].value, -8.7654321012345678);
    EXPECT_EQ(loaded.statOps[1].buckets, 28);
}

TEST(CheckpointCellJson, RejectsWrongDigestAndGarbage)
{
    CheckpointCell cell;
    cell.cell = 0;
    cell.measurement = someMeasurement();
    const std::string text = checkpointCellJson(cell, 1);

    CheckpointCell out;
    std::string error;
    EXPECT_FALSE(checkpointCellFromJson(text, 2, out, &error));
    EXPECT_NE(error.find("configuration"), std::string::npos);

    EXPECT_FALSE(checkpointCellFromJson("not json at all", 1, out,
                                        &error));
    EXPECT_FALSE(checkpointCellFromJson("{}", 1, out, &error));
    EXPECT_FALSE(checkpointCellFromJson(
        text.substr(0, text.size() / 2), 1, out, &error));
}

TEST_F(JournalTest, StoreLoadRoundTrip)
{
    obs::RecordStore store;
    store.open(dir, 42);
    ASSERT_TRUE(store.enabled());

    CheckpointCell a;
    a.cell = 0;
    a.measurement = someMeasurement();
    CheckpointCell b;
    b.cell = 2;
    b.measurement = someMeasurement();
    b.measurement.label = "srad";
    ASSERT_TRUE(storeCell(store, a));
    ASSERT_TRUE(storeCell(store, b));

    const auto cells = loadCheckpointCells(store, 4);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells.at(0).measurement.label, "kmeans(par)");
    EXPECT_EQ(cells.at(2).measurement.label, "srad");
}

TEST_F(JournalTest, SkipsCorruptStaleAndOutOfRangeCells)
{
    obs::RecordStore store;
    store.open(dir, 42);

    CheckpointCell good;
    good.cell = 1;
    good.measurement = someMeasurement();
    ASSERT_TRUE(storeCell(store, good));

    // Out of range for a 2-cell sweep.
    CheckpointCell outside;
    outside.cell = 7;
    outside.measurement = someMeasurement();
    ASSERT_TRUE(storeCell(store, outside));

    // A cell recorded by a different configuration.
    obs::RecordStore other;
    other.open(dir, 43);
    CheckpointCell stale;
    stale.cell = 0;
    stale.measurement = someMeasurement();
    ASSERT_TRUE(storeCell(other, stale));

    // Garbage that merely looks like a cell file.
    ASSERT_TRUE(
        fi::atomicWriteFile(dir + "/cell-000099.json", "{broken"));

    // A record of another kind under a cell name.
    std::string foreign = checkpointCellJson(good, 42);
    const std::string cellKind = "\"kind\":\"cell\"";
    ASSERT_NE(foreign.find(cellKind), std::string::npos);
    foreign.replace(foreign.find(cellKind), cellKind.size(),
                    "\"kind\":\"segment\"");
    ASSERT_TRUE(fi::atomicWriteFile(dir + "/cell-000004.json", foreign));

    // A valid cell 1 under the name of cell 5.
    ASSERT_TRUE(fi::atomicWriteFile(dir + "/cell-000005.json",
                                    checkpointCellJson(good, 42)));

    const auto cells = loadCheckpointCells(store, 2);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells.begin()->first, 1u);

    // Invalid cells are renamed aside, to be re-measured; a valid but
    // out-of-range one is only skipped.
    for (const char *name : {"cell-000000", "cell-000099", "cell-000004",
                             "cell-000005"}) {
        const std::string path = dir + "/" + name + ".json";
        EXPECT_TRUE(std::filesystem::exists(path + ".quarantined")) << path;
        EXPECT_FALSE(std::filesystem::exists(path)) << path;
    }
    EXPECT_TRUE(std::filesystem::exists(dir + "/cell-000001.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/cell-000007.json"));
}

TEST_F(JournalTest, DisabledJournalLoadsNothing)
{
    obs::RecordStore store;
    EXPECT_FALSE(store.enabled());
    EXPECT_TRUE(loadCheckpointCells(store, 8).empty());
}

} // namespace
} // namespace dfault::core
