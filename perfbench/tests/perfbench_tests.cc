// Self-tests of the benchmark's own logic: the command-line parser,
// the tail-percentile rule and the span self-time computation.

#include <gtest/gtest.h>

#include <stdexcept>

#include "cli.h"
#include "stats.h"
#include "tracer.h"

using namespace perfbench;

namespace {

ParseResult
parse(std::vector<std::string> args)
{
    return parseArgs(args);
}

Span
span(std::uint64_t id, std::uint64_t parent, double start, double end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = "s" + std::to_string(id);
    s.start_s = start;
    s.end_s = end;
    return s;
}

} // namespace

TEST(PerfbenchCli, AcceptsAFullCommandLine)
{
    const ParseResult r = parse({"--workload", "serve-open", "--seed", "7",
                                 "--seconds", "2.5", "--trace", "1"});
    ASSERT_TRUE(r.options) << r.error;
    EXPECT_EQ(r.options->workload, "serve-open");
    EXPECT_EQ(r.options->seed, 7u);
    EXPECT_DOUBLE_EQ(r.options->seconds, 2.5);
    EXPECT_TRUE(r.options->trace);
}

TEST(PerfbenchCli, DefaultsNeedOnlyAWorkload)
{
    const ParseResult r = parse({"--workload", "model-sweep"});
    ASSERT_TRUE(r.options) << r.error;
    EXPECT_EQ(r.options->seed, 1u);
    EXPECT_FALSE(r.options->trace);
    EXPECT_TRUE(r.options->trace_out.empty());
}

TEST(PerfbenchCli, RejectsMalformedCommandLines)
{
    const std::vector<std::vector<std::string>> bad = {
        {},
        {"--workload"},
        {"--workload", "nope"},
        {"--workload", "serve-open", "--smoke"},
        {"--workload", "serve-open", "extra"},
        {"--workload", "serve-open", "--workload", "offline-pim"},
        {"--workload", "serve-open", "--seed", "-1"},
        {"--workload", "serve-open", "--seed", "12x"},
        {"--workload", "serve-open", "--seed", "1.5"},
        {"--workload", "serve-open", "--seed", "99999999999999999999"},
        {"--workload", "serve-open", "--seconds", "0"},
        {"--workload", "serve-open", "--seconds", "-3"},
        {"--workload", "serve-open", "--seconds", "0.5"},
        {"--workload", "serve-open", "--seconds", "120.5"},
        {"--workload", "serve-open", "--seconds", "600"},
        {"--workload", "serve-open", "--seconds", "nan"},
        {"--workload", "serve-open", "--seconds", "1e999"},
        {"--workload", "serve-open", "--seconds", "2s"},
        {"--workload", "serve-open", "--seconds", ""},
        {"--workload", "serve-open", "--trace", "2"},
        {"--workload", "serve-open", "--trace", "yes"},
        {"--workload", "serve-open", "--trace-out", "--smoke"},
        {"--workload", "serve-open", "--trace-out", "-"},
        {"--workload", "serve-open", "--trace-out"},
    };
    for (const auto &args : bad) {
        const ParseResult r = parse(args);
        std::string joined;
        for (const auto &a : args)
            joined += a + " ";
        EXPECT_FALSE(r.options) << joined;
        EXPECT_FALSE(r.error.empty()) << joined;
    }
}

TEST(PerfbenchCli, SecondsRangeIsInclusive)
{
    for (const char *value : {"1", "120"}) {
        const ParseResult r =
            parse({"--workload", "serve-open", "--seconds", value});
        ASSERT_TRUE(r.options) << r.error;
        EXPECT_DOUBLE_EQ(r.options->seconds, std::stod(value));
    }
}

TEST(PerfbenchStats, TailKeepsTenSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    const Tail t = tail(samples);
    EXPECT_DOUBLE_EQ(t.value, 90.0); // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 100u);

    std::vector<double> eleven(11, 1.0);
    eleven[10] = 5.0;
    EXPECT_DOUBLE_EQ(tail(eleven).value, 1.0);
    EXPECT_NEAR(tail(eleven).percentile, 100.0 / 11.0, 1e-12);
    EXPECT_THROW(tail(std::vector<double>(10, 1.0)), std::invalid_argument);
}

TEST(PerfbenchStats, WindowedTailIgnoresOneStalledWindow)
{
    // 2500 samples -> 5 windows of 500; one window holds a long stall.
    std::vector<double> samples;
    for (int w = 0; w < 5; ++w)
        for (int i = 0; i < 500; ++i)
            samples.push_back(w == 2 && i >= 250 ? 1e6 : i + w);
    const Tail t = windowedTail(samples);
    EXPECT_EQ(t.samples, 500u);
    EXPECT_DOUBLE_EQ(t.percentile, 98.0);
    // Window tails are 489, 490, 1e6, 492, 493: the median skips the stall.
    EXPECT_DOUBLE_EQ(t.value, 492.0);
    EXPECT_DOUBLE_EQ(tail(samples).value, 1e6);

    // Fewer than two windows' worth of samples: the plain tail rule.
    const std::vector<double> few(700, 3.0);
    EXPECT_EQ(windowedTail(few).samples, 700u);
}

TEST(PerfbenchStats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchTracer, SelfTimeSubtractsTheUnionOfChildren)
{
    const std::vector<Span> spans = {
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),  // overlaps its sibling
        span(3, 1, 3.0, 5.0),
        span(4, 1, 8.0, 12.0), // runs past the parent's end
        span(5, 2, 1.0, 2.0),  // grandchild: only its parent sees it
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0); // [1,5] and [8,10]
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 2.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(PerfbenchTracer, NestedScopesRecordParents)
{
    Tracer tracer(true);
    {
        ScopedSpan outer(tracer, "outer");
        ScopedSpan inner(tracer, "inner");
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[0].parent, 0u);
    EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
    const std::vector<SpanSummary> sum = summarize(tracer.spans());
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_LE(sum[0].self_s, sum[0].total_s);

    Tracer off(false);
    {
        ScopedSpan s(off, "ignored");
    }
    EXPECT_TRUE(off.spans().empty());
}
