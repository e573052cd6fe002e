#include "core/checkpoint.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace dfault::core {

namespace {

void
hashString(std::uint64_t &hash, const std::string &s)
{
    hash = fnv1a64(s, hash);
    hash = fnv1a64(";", hash);
}

/** The cell payload after the store header. */
bool
cellFromDoc(const obs::JsonValue &doc, CheckpointCell &out,
            std::string *error)
{
    CheckpointCell parsed;
    std::uint64_t cell = 0;
    obs::u64Field(doc, kCheckpointCell.indexKey, cell);
    parsed.cell = static_cast<std::size_t>(cell);
    Measurement &m = parsed.measurement;
    const obs::JsonValue *label = doc.find("label");
    if (label == nullptr || label->kind != obs::JsonValue::Kind::String ||
        !obs::intFieldIn(doc, "threads", 0, 1 << 20, m.threads))
        return obs::recordError(error, "missing label/threads");
    m.label = label->string;

    const auto numbers = [](const obs::JsonValue *v,
                            std::vector<double> &out) {
        return obs::arrayFromJson(v, obs::numberFromJson, out);
    };
    std::vector<double> op;
    if (!numbers(doc.find("requested"), op) || op.size() != 3)
        return obs::recordError(error, "bad requested operating point");
    m.requested = {op[0], op[1], op[2]};
    if (!numbers(doc.find("achieved"), op) || op.size() != 3)
        return obs::recordError(error, "bad achieved operating point");
    m.achieved = {op[0], op[1], op[2]};

    const obs::JsonValue *run = doc.find("run");
    if (run == nullptr || !run->isObject())
        return obs::recordError(error, "missing run object");
    if (!numbers(run->find("wer_series"), m.run.werSeries) ||
        !numbers(run->find("ce_per_device"), m.run.cePerDevice) ||
        !numbers(run->find("words_per_device"), m.run.wordsPerDevice))
        return obs::recordError(error, "bad run series arrays");
    const obs::JsonValue *crashed = run->find("crashed");
    const obs::JsonValue *sdc = obs::requireNumber(*run, "expected_sdc");
    const obs::JsonValue *words =
        obs::requireNumber(*run, "allocated_words");
    if (crashed == nullptr || crashed->kind != obs::JsonValue::Kind::Bool ||
        !obs::intFieldIn(*run, "crash_epoch", -1, 1 << 30,
                         m.run.crashEpoch) ||
        !obs::intFieldIn(*run, "crash_device", -1, 1 << 30,
                         m.run.crashDevice) ||
        sdc == nullptr || words == nullptr)
        return obs::recordError(error, "bad run scalar fields");
    m.run.crashed = crashed->boolean;
    m.run.expectedSdc = sdc->number;
    m.run.allocatedWords = words->number;

    const obs::JsonValue *ops = doc.find("stat_ops");
    std::string ops_error;
    if (ops == nullptr ||
        !obs::statOpsFromJson(*ops, parsed.statOps, &ops_error))
        return obs::recordError(error, "bad stat_ops: " + ops_error);

    out = std::move(parsed);
    return true;
}

} // namespace

std::uint64_t
sweepConfigDigest(const CharacterizationCampaign::Params &params,
                  const std::vector<workloads::WorkloadConfig> &suite,
                  const std::vector<dram::OperatingPoint> &points)
{
    std::uint64_t hash = kFnvOffset64;
    hashString(hash, "dfault-sweep-v1");

    hashU64(hash, params.workload.footprintBytes);
    hashU64(hash, params.workload.seed);
    hashDouble(hash, params.workload.workScale);

    const ErrorIntegrator::Params &ip = params.integrator;
    hashDouble(hash, ip.epochLength);
    hashU64(hash, static_cast<std::uint64_t>(ip.epochs));
    hashDouble(hash, ip.exposureWords);
    hashDouble(hash, ip.accessRefreshExponent);
    hashU64(hash, ip.dataPatternVulnerability ? 1 : 0);
    hashDouble(hash, ip.ueWordCoupling);
    hashDouble(hash, ip.retention.mu);
    hashDouble(hash, ip.retention.sigma);
    hashDouble(hash, ip.retention.tempAlpha);
    hashDouble(hash, ip.retention.vddGamma);
    hashDouble(hash, ip.retention.refTemperature);
    hashDouble(hash, ip.vrt.onRate);
    hashDouble(hash, ip.vrt.offRate);
    hashDouble(hash, ip.interference.strength);
    hashDouble(hash, ip.interference.refActivations);
    hashDouble(hash, ip.interference.maxDelta);
    hashU64(hash, ip.seed);

    hashU64(hash, params.useThermalLoop ? 1 : 0);

    hashU64(hash, suite.size());
    for (const workloads::WorkloadConfig &config : suite) {
        hashString(hash, config.kernel);
        hashU64(hash, static_cast<std::uint64_t>(config.threads));
        hashString(hash, config.label);
    }
    hashU64(hash, points.size());
    for (const dram::OperatingPoint &op : points) {
        hashDouble(hash, op.trefp);
        hashDouble(hash, op.vdd);
        hashDouble(hash, op.temperature);
    }
    return hash;
}

std::string
checkpointCellJson(const CheckpointCell &cell, std::uint64_t digest)
{
    const Measurement &m = cell.measurement;
    obs::JsonWriter w = obs::recordHeader(kCheckpointCell, cell.cell, digest);
    w.field("label", m.label);
    w.field("threads", m.threads);
    const auto numbers = [](const std::vector<double> &values) {
        return obs::arrayJson(values, obs::jsonNumber);
    };
    w.fieldRaw("requested", numbers({m.requested.trefp, m.requested.vdd,
                                     m.requested.temperature}));
    w.fieldRaw("achieved", numbers({m.achieved.trefp, m.achieved.vdd,
                                    m.achieved.temperature}));

    obs::JsonWriter run;
    run.fieldRaw("wer_series", numbers(m.run.werSeries));
    run.fieldRaw("ce_per_device", numbers(m.run.cePerDevice));
    run.fieldRaw("words_per_device", numbers(m.run.wordsPerDevice));
    run.field("crashed", m.run.crashed);
    run.field("crash_epoch", m.run.crashEpoch);
    run.field("crash_device", m.run.crashDevice);
    run.field("expected_sdc", m.run.expectedSdc);
    run.field("allocated_words", m.run.allocatedWords);
    w.fieldRaw("run", run.str());

    w.fieldRaw("stat_ops", obs::statOpsJson(cell.statOps));
    return w.str();
}

bool
checkpointCellFromJson(const std::string &text, std::uint64_t digest,
                       CheckpointCell &out, std::string *error)
{
    const auto doc = obs::parseRecord(text, kCheckpointCell, digest, error);
    return doc && cellFromDoc(*doc, out, error);
}

std::map<std::size_t, CheckpointCell>
loadCheckpointCells(const obs::RecordStore &store, std::size_t totalCells)
{
    std::map<std::size_t, CheckpointCell> cells;
    for (const std::uint64_t n : store.list(kCheckpointCell)) {
        CheckpointCell cell;
        if (!store.load(kCheckpointCell, n, cell, cellFromDoc))
            continue;
        if (n >= totalCells) {
            DFAULT_WARN("checkpoint: skipping ",
                        store.path(kCheckpointCell, n), ": cell ", n,
                        " out of range (sweep has ", totalCells,
                        " cells)");
            continue;
        }
        cells[n] = std::move(cell);
    }
    return cells;
}

} // namespace dfault::core
