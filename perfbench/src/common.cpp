#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>

#include "obs/stats.hh"
#include "perfbench.hh"
#include "stats/summary.hh"

namespace perfbench {

namespace fs = std::filesystem;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, const char *salt)
{
    // SplitMix64 finalizer over the seed folded with the salt's hash.
    std::uint64_t z = seed;
    for (const char *c = salt; *c != '\0'; ++c)
        z = (z ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---- Spans -----------------------------------------------------------

namespace {

thread_local int tCurrentSpan = -1;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

int
SpanLog::open(std::string name, std::string detail, int parent,
              double start)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Record r;
    r.id = static_cast<int>(records_.size());
    r.parent = parent;
    r.thread = threadIndex();
    r.name = std::move(name);
    r.detail = std::move(detail);
    r.start = start;
    r.end = start;
    records_.push_back(std::move(r));
    return records_.back().id;
}

void
SpanLog::close(int id, double end)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.at(static_cast<std::size_t>(id)).end = end;
}

void
SpanLog::printSummary(std::FILE *out) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // Children of one span may overlap (pool workers), so a span's self
    // time subtracts the union of its children's intervals.
    std::vector<std::vector<std::pair<double, double>>> kids(
        records_.size());
    for (const Record &r : records_)
        if (r.parent >= 0)
            kids[static_cast<std::size_t>(r.parent)].emplace_back(r.start,
                                                                  r.end);
    struct Total
    {
        std::size_t count = 0;
        double seconds = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Total> totals;
    for (const Record &r : records_) {
        auto &k = kids[static_cast<std::size_t>(r.id)];
        std::sort(k.begin(), k.end());
        double covered = 0.0, reach = r.start;
        for (const auto &[s, e] : k) {
            const double from = std::max(s, reach);
            const double to = std::min(e, r.end);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        Total &t = totals[r.name];
        ++t.count;
        t.seconds += r.seconds();
        t.self += r.seconds() - covered;
    }
    std::vector<std::pair<std::string, Total>> rows(totals.begin(),
                                                    totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.self > b.second.self;
    });
    std::fprintf(out, "spans (by self time):\n  %-40s %6s %10s %10s\n",
                 "name", "count", "total_s", "self_s");
    for (const auto &[name, t] : rows)
        std::fprintf(out, "  %-40s %6zu %10.3f %10.3f\n", name.c_str(),
                     t.count, t.seconds, t.self);
}

bool
SpanLog::write(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = records_.empty() ? 0.0 : records_[0].start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      r.thread, (r.start - origin) * 1e6,
                      r.seconds() * 1e6);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(r.name)
            << "\"," << buf << ",\"args\":{\"id\":" << r.id
            << ",\"parent\":" << r.parent << ",\"detail\":\""
            << jsonEscape(r.detail) << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *name, std::string detail, int parent)
    : start_(nowSeconds())
{
    auto &log = SpanLog::instance();
    if (!log.enabled())
        return;
    if (parent == kInheritParent)
        parent = tCurrentSpan;
    id_ = log.open(name, std::move(detail), parent, start_);
    savedCurrent_ = tCurrentSpan;
    tCurrentSpan = id_;
}

Span::~Span() { stop(); }

double
Span::stop()
{
    if (seconds_ >= 0.0)
        return seconds_;
    const double end = nowSeconds();
    seconds_ = end - start_;
    if (id_ >= 0) {
        SpanLog::instance().close(id_, end);
        tCurrentSpan = savedCurrent_;
    }
    return seconds_;
}

// ---- Digests ---------------------------------------------------------

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffU;
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(const std::string &s)
{
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

void
digestProfile(Digest &d, const dfault::features::WorkloadProfile &p)
{
    d.add(p.label);
    for (const double f : p.features.values())
        d.add(f);
    d.add(p.wallSeconds);
    d.add(p.footprintWords);
    d.add(p.treuse);
    d.add(p.entropy);
    for (const double b : p.bitOneProb)
        d.add(b);
    for (const auto &rows : p.deviceRows) {
        d.add(static_cast<std::uint64_t>(rows.size()));
        for (const auto &row : rows) {
            d.add(row.rowIndex);
            d.add(row.accessRate);
            d.add(row.activationRate);
            d.add(row.longestGap);
            d.add(static_cast<std::uint64_t>(row.touchedWords));
        }
    }
}

void
digestMeasurement(Digest &d, const dfault::core::Measurement &m)
{
    d.add(m.label);
    d.add(m.achieved.temperature);
    d.add(m.run.wer());
    for (const double w : m.run.werSeries)
        d.add(w);
    for (const double ce : m.run.cePerDevice)
        d.add(ce);
    d.add(static_cast<std::uint64_t>(m.run.crashed));
    d.add(static_cast<std::uint64_t>(m.run.crashEpoch + 1));
    d.add(static_cast<std::uint64_t>(m.run.crashDevice + 1));
}

// ---- Registry --------------------------------------------------------

CounterMap
readCounters()
{
    CounterMap out;
    for (const auto &s : dfault::obs::Registry::instance().sample())
        if (s.kind == dfault::obs::StatKind::Counter)
            out[s.name] = s.value;
    return out;
}

CounterMap
delta(const CounterMap &after, const CounterMap &before)
{
    CounterMap out;
    for (const auto &[name, v] : after)
        out[name] = v - get(before, name);
    return out;
}

double
get(const CounterMap &m, const std::string &name)
{
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
}

std::uint64_t
memAccesses(const CounterMap &d)
{
    std::uint64_t n = 0;
    for (const auto &[name, v] : d)
        if (name.starts_with("platform.core.") &&
            (name.ends_with(".loads") || name.ends_with(".stores")))
            n += static_cast<std::uint64_t>(v);
    return n;
}

dfault::obs::HistogramSnapshot
histogramSnapshot(const std::string &name)
{
    return dfault::obs::Registry::instance().histogram(name).snapshot();
}

dfault::obs::HistogramSnapshot
histogramDelta(const dfault::obs::HistogramSnapshot &after,
               const dfault::obs::HistogramSnapshot &before)
{
    std::map<int, std::uint64_t> old(before.buckets.begin(),
                                     before.buckets.end());
    dfault::obs::HistogramSnapshot d;
    d.count = after.count - before.count;
    d.zeros = after.zeros - before.zeros;
    d.max = after.max;
    for (const auto &[index, n] : after.buckets) {
        const std::uint64_t was = old.count(index) ? old[index] : 0;
        if (n > was)
            d.buckets.emplace_back(index, n - was);
    }
    return d;
}

// ---- Files -----------------------------------------------------------

DirUsage
dirUsage(const std::string &path)
{
    DirUsage u;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(path, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        const std::uint64_t size = it->file_size();
        ++u.files;
        u.bytes += size;
        if (it->path().filename().string().starts_with("snap-"))
            u.largestSnapshot = std::max(u.largestSnapshot, size);
    }
    return u;
}

void
freshDir(const std::string &path)
{
    fs::remove_all(path);
    fs::create_directories(path);
}

// ---- Results ---------------------------------------------------------

double
medianOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : dfault::stats::median(v);
}

double
Metric::value() const
{
    if (samples.empty())
        return 0.0;
    return reduce == Reduce::Median ? medianOf(samples) : samples.back();
}

void
Result::add(const std::string &name, const std::string &unit, double v,
            Metric::Reduce reduce)
{
    Metric &m = metrics[name];
    m.unit = unit;
    m.reduce = reduce;
    m.samples.push_back(v);
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        problems.push_back(what);
    }
}

void
Result::count(const std::string &name, std::uint64_t v)
{
    const auto [it, fresh] = counts.emplace(name, v);
    if (!fresh && it->second != v)
        check(false, "count " + name + " changed between iterations: " +
                         std::to_string(it->second) + " then " +
                         std::to_string(v));
}

double
peakRssMib()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
