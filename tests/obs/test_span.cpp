/**
 * @file
 * Span tracer tests: ring wraparound, half-open finalization, task
 * span parentage and phase paths across pool dispatch at 1, 2 and 8
 * threads, exclusive-time attribution and the Chrome trace-event
 * export.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/trace_writer.hh"
#include "par/pool.hh"

namespace dfault::obs {
namespace {

/** Completed Span entries among @p entries. */
std::vector<TraceEntry>
spansOf(const std::vector<TraceEntry> &entries)
{
    std::vector<TraceEntry> spans;
    for (const TraceEntry &e : entries)
        if (e.kind == TraceKind::Span)
            spans.push_back(e);
    return spans;
}

TEST(SpanTracer, DisabledTracerRecordsNothing)
{
    SpanTracer::instance().disable();
    Registry reg;
    const ScopedTimer timer("x", &reg);
    EXPECT_EQ(currentScope().span, 0u);
    {
        const ScopedTask task(Scope{"x", 0});
        EXPECT_EQ(currentScope().span, 0u);
    }
    EXPECT_EQ(currentScope().span, 0u);
}

TEST(SpanTracer, RingWraparoundKeepsNewestSpans)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable(4);
    for (int i = 0; i < 10; ++i) {
        const std::string path = "p" + std::to_string(i);
        const ScopedTask task(Scope{path, 0});
    }
    tracer.disable();

    EXPECT_EQ(tracer.dropped(), 6u); // 10 recorded into 4 slots
    EXPECT_EQ(tracer.spanCount(), 4u);
    const auto spans = spansOf(tracer.drain());
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first drain of the newest four spans.
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(spans[static_cast<std::size_t>(k)].path,
                  "p" + std::to_string(6 + k));
}

TEST(SpanTracer, DrainFinalizesHalfOpenSpanExactlyOnce)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    std::optional<ScopedTimer> leaky(std::in_place, "leaky", &reg);
    const std::uint64_t id = currentScope().span;
    ASSERT_NE(id, 0u);

    const auto first = spansOf(tracer.drain());
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].id, id);
    EXPECT_GE(first[0].endNs, first[0].startNs); // finalized at drain

    // The real end arrives later; it must not record a duplicate.
    leaky.reset();
    tracer.disable();
    const auto second = spansOf(tracer.drain());
    EXPECT_TRUE(second.empty());
}

TEST(SpanTracer, ReEnableKeepsLiveScopePathsButDropsTheirSpans)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    {
        const ScopedTimer outer("outer", &reg);
        ASSERT_NE(currentScope().span, 0u);
        tracer.enable(); // a new trace: ids restart, old spans are gone
        EXPECT_EQ(currentScope().path, "outer");
        EXPECT_EQ(currentScope().span, 0u);
        const ScopedTimer inner("inner", &reg);
    }
    tracer.disable();
    EXPECT_EQ(reg.value("time.outer.inner.calls"), 1.0);
    const auto spans = spansOf(tracer.drain());
    ASSERT_EQ(spans.size(), 1u); // outer began in the discarded trace
    EXPECT_EQ(spans[0].path, "outer.inner");
    EXPECT_EQ(spans[0].parent, 0u);
}

TEST(SpanTracer, NestingRecordsParentage)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    std::uint64_t outer_id = 0, inner_id = 0;
    {
        const ScopedTimer outer("outer", &reg);
        outer_id = currentScope().span;
        {
            const ScopedTimer inner("inner", &reg);
            inner_id = currentScope().span;
        }
        EXPECT_EQ(currentScope().span, outer_id);
    }
    tracer.disable();
    const auto spans = spansOf(tracer.drain());
    ASSERT_EQ(spans.size(), 2u);
    const TraceEntry &outer_e =
        spans[0].id == outer_id ? spans[0] : spans[1];
    const TraceEntry &inner_e =
        spans[0].id == inner_id ? spans[0] : spans[1];
    EXPECT_EQ(outer_e.id, outer_id);
    EXPECT_EQ(outer_e.parent, 0u);
    EXPECT_EQ(inner_e.id, inner_id);
    EXPECT_EQ(inner_e.parent, outer_id);
    EXPECT_LE(inner_e.endNs, outer_e.endNs); // child inside parent
}

TEST(SpanTracer, TaskSpansParentToSubmitterAcrossDispatch)
{
    par::Pool::setGlobalThreads(8);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    std::uint64_t root_id = 0;
    {
        const ScopedTimer root("submit_root", &reg);
        root_id = currentScope().span;
        par::Pool::global().parallelFor(64, [](std::size_t) {});
    }
    tracer.disable();

    int task_spans = 0;
    for (const TraceEntry &e : spansOf(tracer.drain())) {
        if (e.name != "task")
            continue;
        ++task_spans;
        // Worker or submitter alike: every task span hangs off the
        // span that was open on the submitting thread.
        EXPECT_EQ(e.parent, root_id);
    }
    EXPECT_GT(task_spans, 0);
}

TEST(SpanTracer, TaskSpanCountMatchesExecutedCounter)
{
    par::Pool::setGlobalThreads(8);
    auto &reg = Registry::instance();
    const auto executed = [&] {
        return reg.has("par.tasks_executed")
                   ? reg.value("par.tasks_executed")
                   : 0.0;
    };

    auto &tracer = SpanTracer::instance();
    tracer.enable();
    const double before = executed();
    par::Pool::global().parallelFor(64, [](std::size_t) {});
    par::Pool::global().parallelFor(3, [](std::size_t) {});
    const double delta = executed() - before;
    tracer.disable();

    int task_spans = 0;
    std::set<std::uint64_t> flow_begin, flow_end;
    for (const TraceEntry &e : tracer.drain()) {
        if (e.kind == TraceKind::Span && e.name == "task")
            ++task_spans;
        if (e.kind == TraceKind::FlowBegin)
            flow_begin.insert(e.id);
        if (e.kind == TraceKind::FlowEnd)
            flow_end.insert(e.id);
    }
    EXPECT_EQ(static_cast<double>(task_spans), delta);
    // Every dispatch arrow that was picked up has its origin recorded.
    EXPECT_EQ(flow_begin, flow_end);
}

/**
 * Timers inside pool tasks nest under the submitter's timer at any
 * pool size: the stats path, and with tracing on the span chain
 * cell -> task -> outer.
 */
void
expectPoolTasksNestUnderSubmitter(int threads)
{
    par::Pool::setGlobalThreads(threads);
    auto &tracer = SpanTracer::instance();
    for (const bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        if (traced)
            tracer.enable();
        Registry reg;
        std::uint64_t outer_id = 0;
        {
            const ScopedTimer outer("outer", &reg);
            outer_id = currentScope().span;
            par::Pool::global().parallelFor(32, [&](std::size_t) {
                const ScopedTimer cell("cell", &reg);
                // Long enough that workers wake and take chunks, not
                // only the submitter.
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            });
        }
        tracer.disable();
        EXPECT_EQ(reg.value("time.outer.cell.calls"), 32.0);
        if (!traced)
            continue;

        const auto spans = spansOf(tracer.drain());
        std::map<std::uint64_t, TraceEntry> byId;
        for (const TraceEntry &e : spans)
            byId[e.id] = e;
        int cells = 0;
        for (const TraceEntry &e : spans) {
            if (e.name != "cell")
                continue;
            ++cells;
            EXPECT_EQ(e.path, "outer.cell");
            const auto task = byId.find(e.parent);
            ASSERT_NE(task, byId.end());
            EXPECT_EQ(task->second.name, "task");
            EXPECT_EQ(task->second.path, "outer");
            EXPECT_EQ(task->second.parent, outer_id);
        }
        EXPECT_EQ(cells, 32);
        ASSERT_NE(byId.find(outer_id), byId.end());
        EXPECT_EQ(byId[outer_id].name, "outer");
    }
}

TEST(ScopedTask, PoolTasksNestUnderSubmitterSerial)
{
    expectPoolTasksNestUnderSubmitter(1);
}

TEST(ScopedTask, PoolTasksNestUnderSubmitterTwoThreads)
{
    expectPoolTasksNestUnderSubmitter(2);
}

TEST(ScopedTask, PoolTasksNestUnderSubmitterEightThreads)
{
    expectPoolTasksNestUnderSubmitter(8);
}

/** Traced workload mixing nested timers with pool tasks. */
void
runTracedWorkload()
{
    Registry reg;
    const ScopedTimer outer("outer", &reg);
    par::Pool::global().parallelFor(32, [&](std::size_t) {
        const ScopedTimer cell("cell", &reg);
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k)
            sink = sink + static_cast<double>(k);
    });
    const ScopedTimer tail("tail", &reg);
}

void
expectExclusiveSumsToThreadRoots(int threads)
{
    par::Pool::setGlobalThreads(threads);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    runTracedWorkload();
    tracer.disable();

    const auto entries = tracer.drain();
    const auto rows = exclusiveTimes(entries);
    ASSERT_FALSE(rows.empty());
    double exclusive_sum = 0.0;
    for (const ExclusiveTime &row : rows) {
        EXPECT_GE(row.exclusiveSeconds, 0.0);
        EXPECT_GE(row.inclusiveSeconds, row.exclusiveSeconds);
        exclusive_sum += row.exclusiveSeconds;
    }
    // Exclusive time partitions the thread-root spans exactly: what a
    // parent loses to same-thread children, the children gain.
    EXPECT_NEAR(exclusive_sum, threadRootSeconds(entries), 1e-9);
}

TEST(ExclusiveTimes, SumToThreadRootInclusiveSerial)
{
    expectExclusiveSumsToThreadRoots(1);
}

TEST(ExclusiveTimes, SumToThreadRootInclusiveParallel)
{
    expectExclusiveSumsToThreadRoots(8);
}

TEST(TraceJson, ExportParsesAndMatchesSpanCount)
{
    par::Pool::setGlobalThreads(8);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    runTracedWorkload();
    tracer.disable();

    const auto entries = tracer.drain();
    const auto spans = spansOf(entries);
    ASSERT_FALSE(spans.empty());

    std::string error;
    const auto doc = jsonParse(traceJson(entries), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t slices = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "X")
            ++slices;
    }
    EXPECT_EQ(slices, spans.size());
}

TEST(TraceJson, CounterSamplesBecomeCounterTracks)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    reg.counter("demo.widgets", "widgets made").inc(42);
    tracer.sampleCounters(reg);
    tracer.disable();

    const auto entries = tracer.drain();
    std::string error;
    const auto doc = jsonParse(traceJson(entries), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    bool found = false;
    for (const JsonValue &event : doc->find("traceEvents")->array) {
        const JsonValue *ph = event.find("ph");
        if (ph == nullptr || ph->string != "C")
            continue;
        if (event.find("name")->string != "demo.widgets")
            continue;
        found = true;
        EXPECT_EQ(event.find("args")->find("value")->number, 42.0);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace dfault::obs
