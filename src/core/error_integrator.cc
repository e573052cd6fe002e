#include "core/error_integrator.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/deferral.hh"
#include "obs/stats.hh"
#include "par/pool.hh"

namespace dfault::core {

namespace {

/** Pairs of cells per 72-bit ECC word. */
constexpr double kPairsPerWord = 72.0 * 71.0 / 2.0;
/** Triples of cells per 72-bit ECC word. */
constexpr double kTriplesPerWord = 72.0 * 71.0 * 70.0 / 6.0;
/** The paper's per-run allocation: 8 GiB of 64-bit words. */
constexpr double kPaperWords = 8.0 * 1024.0 * 1024.0 * 1024.0 / 8.0;
/** Cap on detailed records sampled into the error log per run. */
constexpr int kMaxLoggedRecords = 256;
/** Heaviest rows per device kept for record sampling. */
constexpr std::size_t kHotRows = 64;

std::uint64_t
hashOperatingPoint(const dram::OperatingPoint &op)
{
    std::uint64_t h = 0x9e37;
    h = dfault::hashCombine(h, std::llround(op.trefp * 1e6));
    h = dfault::hashCombine(h, std::llround(op.vdd * 1e6));
    h = dfault::hashCombine(h, std::llround(op.temperature * 1e3));
    return h;
}

/** Mean probability that a stored bit is 1, over the 64 bit lanes. */
double
meanBitOne(const features::WorkloadProfile &profile)
{
    double mean_p1 = 0.0;
    for (const double p : profile.bitOneProb)
        mean_p1 += p;
    return mean_p1 / 64.0;
}

/** The neighbour- and schedule-dependent terms of one touched row. */
struct RowTerms
{
    double suppression = 1.0; ///< implicit-refresh factor
    double delta = 0.0;       ///< threshold widening from hammering
    std::uint32_t phys = 0;   ///< physical row within its bank
};

/**
 * Call @p fn(row, terms) for every touched row of @p rows (one
 * device's profile rows), in profile order.
 */
template <class Fn>
void
forEachRow(const std::vector<features::RowStat> &rows,
           const dram::OperatingPoint &op, const dram::Geometry &geometry,
           const dram::DramDevice &device,
           const dram::InterferenceModel &interference,
           double refresh_exponent, Fn &&fn)
{
    // Activation-rate lookup for neighbour (aggressor) rows.
    std::unordered_map<std::uint64_t, double> act_rate;
    act_rate.reserve(rows.size() * 2);
    for (const auto &row : rows)
        act_rate[row.rowIndex] = row.activationRate;

    const std::uint32_t rows_per_bank = geometry.params().rowsPerBank;
    for (const auto &row : rows) {
        RowTerms terms;
        // Implicit refresh: a row the program re-accesses faster than
        // TREFP has its charge restored by the access stream itself.
        // The suppression is partial (see Params::accessRefreshExponent):
        // rows touched only once in the window get no implicit refresh.
        if (row.longestGap > 0.0 && row.longestGap < op.trefp)
            terms.suppression =
                std::pow(row.longestGap / op.trefp, refresh_exponent);

        // Aggressor activity: activation rates of the two physically
        // adjacent rows in the same bank (after vendor row scrambling).
        const std::uint64_t bank = row.rowIndex / rows_per_bank;
        const auto in_bank =
            static_cast<std::uint32_t>(row.rowIndex % rows_per_bank);
        terms.phys = device.physicalRow(in_bank);
        double aggressor_rate = 0.0;
        for (const std::int64_t d : {-1, +1}) {
            const std::int64_t neighbour_phys =
                static_cast<std::int64_t>(terms.phys) + d;
            if (neighbour_phys < 0 ||
                neighbour_phys >= static_cast<std::int64_t>(rows_per_bank))
                continue;
            const std::uint32_t neighbour_logical = device.physicalRow(
                static_cast<std::uint32_t>(neighbour_phys));
            const auto it = act_rate.find(bank * rows_per_bank +
                                          neighbour_logical);
            if (it != act_rate.end())
                aggressor_rate += it->second;
        }
        terms.delta =
            interference.thresholdWidening(aggressor_rate, op.trefp);
        fn(row, terms);
    }
}

} // namespace

double
RunResult::wer() const
{
    if (allocatedWords <= 0.0)
        return 0.0;
    double total = 0.0;
    for (const double ce : cePerDevice)
        total += ce;
    return total / allocatedWords;
}

double
RunResult::werForDevice(int device) const
{
    const double words = wordsPerDevice.at(device);
    if (words <= 0.0)
        return 0.0;
    return cePerDevice.at(device) / words;
}

ErrorIntegrator::ErrorIntegrator() : ErrorIntegrator(Params{}) {}

ErrorIntegrator::ErrorIntegrator(const Params &params)
    : params_(params), retention_(params.retention), vrt_(params.vrt),
      interference_(params.interference)
{
    if (params_.epochs <= 0)
        DFAULT_FATAL("integrator: epoch count must be positive");
    if (params_.epochLength <= 0.0)
        DFAULT_FATAL("integrator: epoch length must be positive");
}

double
ErrorIntegrator::exposureScale(
    const features::WorkloadProfile &profile) const
{
    const double exposure_words = params_.exposureWords > 0.0
                                      ? params_.exposureWords
                                      : kPaperWords;
    return exposure_words /
           static_cast<double>(
               std::max<std::uint64_t>(profile.footprintWords, 1));
}

std::vector<RowIntensity>
ErrorIntegrator::analyzeRows(const features::WorkloadProfile &profile,
                             const dram::OperatingPoint &op,
                             const dram::Geometry &geometry,
                             const dram::DramDevice &device,
                             int device_index) const
{
    const double exposure_scale = exposureScale(profile);
    const auto &rows = profile.deviceRows.at(device_index);
    std::vector<RowIntensity> out;
    out.reserve(rows.size());
    if (rows.empty())
        return out;

    const double mean_p1 = meanBitOne(profile);
    forEachRow(
        rows, op, geometry, device, interference_,
        params_.accessRefreshExponent,
        [&](const features::RowStat &row, const RowTerms &terms) {
            RowIntensity info;
            info.rowIndex = row.rowIndex;
            info.suppression = terms.suppression;
            info.interferenceDelta = terms.delta;
            const double p_disturbed = retention_.weakProbability(
                op.trefp * (1.0 + info.interferenceDelta), op,
                device.retentionScale());
            const double v = params_.dataPatternVulnerability
                                 ? (device.rowIsTrueCell(terms.phys)
                                        ? mean_p1
                                        : 1.0 - mean_p1)
                                 : 0.5;
            info.ceLambda = row.touchedWords * exposure_scale *
                            units::totalBitsPerWord * p_disturbed *
                            info.suppression * v;
            out.push_back(info);
        });
    return out;
}

DeviceIntensity
ErrorIntegrator::computeIntensity(const features::WorkloadProfile &profile,
                                  const dram::OperatingPoint &op,
                                  const dram::Geometry &geometry,
                                  const dram::DramDevice &device,
                                  int device_index,
                                  double exposure_scale) const
{
    DeviceIntensity out;
    const auto &rows = profile.deviceRows.at(device_index);
    if (rows.empty())
        return out;

    // Data-pattern vulnerability: the average fraction of stored bits in
    // the charged (leak-capable) state for each cell orientation.
    const double mean_p1 = meanBitOne(profile);
    const double v_true = mean_p1;        // true cells leak 1 -> 0
    const double v_anti = 1.0 - mean_p1;  // anti cells leak 0 -> 1

    const double pi_active = vrt_.stationaryActiveFraction();
    // Base retention leakage against the refresh period: the same for
    // every row of the device.
    const double p_base = retention_.weakProbability(
        op.trefp, op, device.retentionScale());

    forEachRow(
        rows, op, geometry, device, interference_,
        params_.accessRefreshExponent,
        [&](const features::RowStat &row, const RowTerms &terms) {
            // Plus the near-threshold cells pushed over by neighbour
            // disturbance.
            const double p_disturbed =
                terms.delta > 0.0
                    ? retention_.weakProbability(
                          op.trefp * (1.0 + terms.delta), op,
                          device.retentionScale())
                    : p_base;
            const double p_weak = p_disturbed * terms.suppression;
            if (p_weak <= 0.0)
                return;

            const double v =
                params_.dataPatternVulnerability
                    ? (device.rowIsTrueCell(terms.phys) ? v_true : v_anti)
                    : 0.5;
            const double p_cell = p_weak * v;
            if (p_cell <= 0.0)
                return;

            const double words = row.touchedWords * exposure_scale;
            const double lambda_ce =
                words * units::totalBitsPerWord * p_cell;
            const double p_active = p_cell * pi_active;
            // A double-bit word needs a second simultaneously-failing
            // cell; disturbance is a single-cell mechanism, so the
            // partner cell fails at the base retention rate
            // (interference enters the pair linearly, not squared).
            // The partner is typically a cell of a *cold* word of the
            // row (implicit refresh is per-word access, per-row restore
            // is partial), so the pair carries one suppression factor,
            // not two.
            const double p_active_base = p_base * v * pi_active;

            out.ceLambda += lambda_ce;
            out.uePerEpoch += words * kPairsPerWord * p_active *
                              p_active_base * params_.ueWordCoupling;
            out.sdcPerEpoch += words * kTriplesPerWord * p_active *
                               p_active_base * p_active_base;
            out.touchedWords += words;
            if (lambda_ce > 0.0)
                out.hotRows.emplace_back(row.rowIndex, lambda_ce);
        });

    // Keep only the heaviest rows for record sampling. The order is
    // total (row index breaks lambda ties), so the kept set and its
    // order do not depend on the sort algorithm.
    const std::size_t keep = std::min(out.hotRows.size(), kHotRows);
    std::partial_sort(out.hotRows.begin(), out.hotRows.begin() + keep,
                      out.hotRows.end(),
                      [](const auto &a, const auto &b) {
                          return a.second != b.second ? a.second > b.second
                                                      : a.first < b.first;
                      });
    out.hotRows.resize(keep);
    return out;
}

RunResult
ErrorIntegrator::run(const features::WorkloadProfile &profile,
                     const dram::OperatingPoint &op,
                     const dram::Geometry &geometry,
                     const std::vector<dram::DramDevice> &devices,
                     std::uint64_t run_seed, dram::ErrorLog *log) const
{
    return sample(intensity(profile, op, geometry, devices), geometry,
                  run_seed, log);
}

RunIntensity
ErrorIntegrator::intensity(const features::WorkloadProfile &profile,
                           const dram::OperatingPoint &op,
                           const dram::Geometry &geometry,
                           const std::vector<dram::DramDevice> &devices)
    const
{
    op.validate();
    DFAULT_ASSERT(static_cast<int>(devices.size()) ==
                      geometry.deviceCount(),
                  "device population does not match the geometry");
    DFAULT_ASSERT(profile.deviceRows.size() == devices.size(),
                  "profile does not match the device population");
    DFAULT_ASSERT(profile.footprintWords > 0,
                  "profile has an empty footprint");

    const double exposure_scale = exposureScale(profile);
    RunIntensity out;
    out.devices.reserve(devices.size());
    for (int d = 0; d < geometry.deviceCount(); ++d)
        out.devices.push_back(computeIntensity(profile, op, geometry,
                                               devices[d], d,
                                               exposure_scale));
    out.allocatedWords =
        static_cast<double>(profile.footprintWords) * exposure_scale;
    out.pointKey = hashOperatingPoint(op);
    out.labelKey = std::hash<std::string>{}(profile.label);
    return out;
}

RunResult
ErrorIntegrator::sample(const RunIntensity &intensity,
                        const dram::Geometry &geometry,
                        std::uint64_t run_seed, dram::ErrorLog *log) const
{
    const int n_dev = geometry.deviceCount();
    DFAULT_ASSERT(static_cast<int>(intensity.devices.size()) == n_dev,
                  "intensity does not match the geometry");

    RunResult result;
    result.cePerDevice.assign(n_dev, 0.0);
    result.wordsPerDevice.resize(n_dev);
    for (int d = 0; d < n_dev; ++d)
        result.wordsPerDevice[d] = intensity.devices[d].touchedWords;
    result.allocatedWords = intensity.allocatedWords;

    Rng rng(hashCombine(hashCombine(params_.seed, intensity.pointKey),
                        hashCombine(run_seed, intensity.labelKey)));

    const std::uint32_t rows_per_bank = geometry.params().rowsPerBank;
    int logged = 0;

    for (int epoch = 1; epoch <= params_.epochs; ++epoch) {
        // Heartbeat contract: one beat per simulated epoch keeps the
        // watchdog's view of a healthy cell fresh even under sanitizer
        // slowdowns (no-op outside a pool task).
        par::heartbeat();
        const double first_act = vrt_.firstActivationProbability(
            static_cast<std::uint64_t>(epoch));

        for (int d = 0; d < n_dev; ++d) {
            const DeviceIntensity &dev_int = intensity.devices[d];

            // New unique CE word locations discovered this epoch.
            const double lambda = dev_int.ceLambda * first_act;
            const std::uint64_t new_ce = rng.poisson(lambda);
            result.cePerDevice[d] += static_cast<double>(new_ce);

            // Sample a few concrete records through the real SECDED
            // codec for the error log.
            if (log != nullptr && new_ce > 0 &&
                logged < kMaxLoggedRecords &&
                !dev_int.hotRows.empty()) {
                const auto &hot = dev_int.hotRows[rng.uniformInt(
                    static_cast<std::uint64_t>(dev_int.hotRows.size()))];
                const std::uint64_t payload = rng.next();
                dram::Codeword word = ecc_.encode(payload);
                const int bit =
                    static_cast<int>(rng.uniformInt(std::uint64_t{72}));
                dram::EccSecded::flipBit(word, bit);
                const auto decode =
                    ecc_.decodeKnownFlips(word, 1, payload);
                DFAULT_ASSERT(decode.outcome ==
                                  dram::EccOutcome::Corrected,
                              "SECDED failed to correct a single flip");
                dram::ErrorRecord record;
                record.device = geometry.deviceAt(d);
                record.bank = static_cast<int>(hot.first / rows_per_bank);
                record.row = static_cast<std::uint32_t>(hot.first %
                                                        rows_per_bank);
                record.column = static_cast<std::uint32_t>(
                    rng.uniformInt(std::uint64_t{
                        geometry.params().wordsPerRow}));
                record.type = dram::ErrorType::CE;
                record.epoch = static_cast<std::uint64_t>(epoch);
                record.bitsFlipped = 1;
                log->report(record);
                ++logged;
            }

            // Uncorrectable errors crash the machine.
            const double p_ue = 1.0 - std::exp(-dev_int.uePerEpoch);
            if (!result.crashed && rng.bernoulli(p_ue)) {
                result.crashed = true;
                result.crashEpoch = epoch;
                result.crashDevice = d;
                if (log != nullptr && !dev_int.hotRows.empty()) {
                    const auto &hot = dev_int.hotRows[0];
                    const std::uint64_t payload = rng.next();
                    dram::Codeword word = ecc_.encode(payload);
                    dram::EccSecded::flipBit(word, 3);
                    dram::EccSecded::flipBit(word, 47);
                    const auto decode =
                        ecc_.decodeKnownFlips(word, 2, payload);
                    DFAULT_ASSERT(
                        decode.outcome ==
                            dram::EccOutcome::Uncorrectable,
                        "SECDED failed to detect a double flip");
                    dram::ErrorRecord record;
                    record.device = geometry.deviceAt(d);
                    record.bank =
                        static_cast<int>(hot.first / rows_per_bank);
                    record.row = static_cast<std::uint32_t>(
                        hot.first % rows_per_bank);
                    record.column = 0;
                    record.type = dram::ErrorType::UE;
                    record.epoch = static_cast<std::uint64_t>(epoch);
                    record.bitsFlipped = 2;
                    log->report(record);
                }
            }

            result.expectedSdc += dev_int.sdcPerEpoch;
        }

        result.werSeries.push_back(result.wer());
        if (result.crashed)
            break;
    }

    // publish*() so campaign-cell deferrals (obs/deferral.hh) can
    // capture the run's stats transactionally; outside a deferral
    // these apply immediately, as before.
    obs::publishCounter("integrator.runs",
                        "characterization runs integrated");
    obs::publishCounter("integrator.epochs", "one-minute epochs simulated",
                        result.werSeries.size());
    double total_ce = 0.0;
    for (const double ce : result.cePerDevice)
        total_ce += ce;
    obs::publishCounter(
        "dram.ce_unique_words",
        "unique CE word locations (exposure-scaled)",
        static_cast<std::uint64_t>(std::llround(total_ce)));
    if (result.crashed)
        obs::publishCounter("dram.ue_crashes", "runs ended by a UE");
    obs::publishGaugeAdd("dram.sdc_expected",
                         "cumulative expected SDC events",
                         result.expectedSdc);

    return result;
}

} // namespace dfault::core
