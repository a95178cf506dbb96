/**
 * @file
 * Observability tests: the structured logger (levels, sinks, the
 * disarmed fast path), the process-wide metrics registry (instrument
 * identity, histogram fidelity, bounded label cardinality, concurrent
 * writers against a scraping reader — this file joins the CI
 * ThreadSanitizer leg), the Prometheus text exposition (golden render
 * plus the structural validator CI re-implements), and per-job
 * pipeline tracing through the streaming scheduler: solo and windowed
 * span completeness, retry epochs, and worker-tier lease ids.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/log.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "device/library.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "workloads/ghz.h"

namespace jigsaw {
namespace {

using core::JobHandle;
using core::Priority;
using core::ServiceProgram;
using core::StreamingScheduler;
using core::StreamOptions;

/** Disarms the process-wide fault injector however the test exits. */
struct FaultGuard
{
    ~FaultGuard() { FaultInjector::instance().clear(); }
};

/** Captures log output for one test and restores the previous sink
 *  and runtime level on destruction. */
struct LogCapture
{
    explicit LogCapture(log::Level level, bool json = false)
        : previousLevel_(log::runtimeLevel())
    {
        if (json)
            previous_ = log::setSink(
                std::make_shared<log::JsonLinesSink>(stream));
        else
            previous_ =
                log::setSink(std::make_shared<log::TextSink>(stream));
        log::setRuntimeLevel(level);
    }

    ~LogCapture()
    {
        log::setSink(previous_);
        log::setRuntimeLevel(previousLevel_);
    }

    std::string text() const { return stream.str(); }

    std::ostringstream stream;

  private:
    std::shared_ptr<log::Sink> previous_;
    log::Level previousLevel_;
};

/** Two small mergeable programs (same circuit/device skeleton). */
std::vector<ServiceProgram>
obsPrograms(const device::DeviceModel &dev, std::uint64_t seed_base)
{
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 4096,
                          core::JigsawOptions{}, seed_base + 1);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 4096,
                          core::JigsawOptions{}, seed_base + 2);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 4096,
                          core::JigsawOptions{}, seed_base + 3);
    return programs;
}

/** Stage names of @p spans for attempt @p attempt, in start order. */
std::vector<std::string>
stagesOf(const std::vector<obs::TraceSpan> &spans, std::uint32_t attempt)
{
    std::vector<std::string> stages;
    for (const obs::TraceSpan &span : spans) {
        if (span.attempt == attempt)
            stages.emplace_back(span.stage);
    }
    return stages;
}

/** One blocking GET / against 127.0.0.1:@p port; returns the whole
 *  response (status line, headers, body). */
std::string
httpGet(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::write(fd, request.data(), request.size());
    std::string response;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n <= 0)
            break;
        response.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

// ------------------------------------------------ structured logging

TEST(Log, ParseLevelNamesAndDigits)
{
    EXPECT_EQ(log::parseLevel("trace", log::Level::Off),
              log::Level::Trace);
    EXPECT_EQ(log::parseLevel("DEBUG", log::Level::Off),
              log::Level::Debug);
    EXPECT_EQ(log::parseLevel("warning", log::Level::Off),
              log::Level::Warn);
    EXPECT_EQ(log::parseLevel("4", log::Level::Off), log::Level::Error);
    EXPECT_EQ(log::parseLevel("none", log::Level::Warn), log::Level::Off);
    EXPECT_EQ(log::parseLevel("bogus", log::Level::Info),
              log::Level::Info);
}

TEST(Log, TextSinkRendersModuleMessageAndFields)
{
    LogCapture capture(log::Level::Info);
    static log::Logger &lg = log::logger("test.obs");
    JIGSAW_LOG_INFO(lg, "job shed", log::kv("class", "Low"),
                    log::kv("backlog", 17),
                    log::kv("retry_after_ms", 2.5),
                    log::kv("transient", true));
    const std::string line = capture.text();
    EXPECT_NE(line.find("info "), std::string::npos);
    EXPECT_NE(line.find("test.obs"), std::string::npos);
    EXPECT_NE(line.find("job shed"), std::string::npos);
    EXPECT_NE(line.find("class=Low"), std::string::npos);
    EXPECT_NE(line.find("backlog=17"), std::string::npos);
    EXPECT_NE(line.find("retry_after_ms=2.5"), std::string::npos);
    EXPECT_NE(line.find("transient=true"), std::string::npos);
}

TEST(Log, TextSinkQuotesValuesWithSpaces)
{
    LogCapture capture(log::Level::Info);
    static log::Logger &lg = log::logger("test.obs");
    JIGSAW_LOG_INFO(lg, "window closed",
                    log::kv("reason", "deadline expired"));
    EXPECT_NE(capture.text().find("reason=\"deadline expired\""),
              std::string::npos);
}

TEST(Log, JsonLinesSinkEmitsOneParseableObjectPerRecord)
{
    LogCapture capture(log::Level::Info, /*json=*/true);
    static log::Logger &lg = log::logger("test.obs");
    JIGSAW_LOG_WARN(lg, "lease \"lost\"", log::kv("lease", 42),
                    log::kv("worker", std::string("w\n1")));
    const std::string line = capture.text();
    // One line, one object, numbers bare, strings escaped.
    EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
    EXPECT_EQ(line.rfind("{\"ts\":", 0), 0u);
    EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
    EXPECT_NE(line.find("\"module\":\"test.obs\""), std::string::npos);
    EXPECT_NE(line.find("\"msg\":\"lease \\\"lost\\\"\""),
              std::string::npos);
    EXPECT_NE(line.find("\"lease\":42"), std::string::npos);
    EXPECT_NE(line.find("\"worker\":\"w\\n1\""), std::string::npos);
}

TEST(Log, RuntimeLevelSuppressesBelowFloor)
{
    LogCapture capture(log::Level::Warn);
    static log::Logger &lg = log::logger("test.obs");
    EXPECT_FALSE(JIGSAW_LOG_ENABLED(lg, log::Level::Debug));
    EXPECT_FALSE(JIGSAW_LOG_ENABLED(lg, log::Level::Info));
    EXPECT_TRUE(JIGSAW_LOG_ENABLED(lg, log::Level::Warn));
    JIGSAW_LOG_INFO(lg, "suppressed");
    JIGSAW_LOG_DEBUG(lg, "also suppressed", log::kv("n", 1));
    EXPECT_TRUE(capture.text().empty());
    JIGSAW_LOG_ERROR(lg, "emitted");
    EXPECT_NE(capture.text().find("emitted"), std::string::npos);
}

TEST(Log, DisarmedStatementsAreCheap)
{
    LogCapture capture(log::Level::Off);
    static log::Logger &lg = log::logger("test.obs");
    // 1M disarmed statements: one relaxed load + branch each. The
    // bound is deliberately loose (CI machines vary wildly); the test
    // exists to catch a regression that makes the disarmed path
    // allocate or format.
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i)
        JIGSAW_LOG_DEBUG(lg, "disarmed", log::kv("i", i));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_TRUE(capture.text().empty());
    EXPECT_LT(ms, 2000.0);
}

// ----------------------------------------------- metrics registry

TEST(Registry, InstrumentsAreInternedAndMonotone)
{
    obs::Registry registry;
    obs::Counter &a = registry.counter("test_total", "help",
                                       {{"k", "v"}});
    obs::Counter &b = registry.counter("test_total", "help",
                                       {{"k", "v"}});
    EXPECT_EQ(&a, &b); // same (name, labels) -> same instrument
    obs::Counter &other = registry.counter("test_total", "help",
                                           {{"k", "w"}});
    EXPECT_NE(&a, &other);
    a.add();
    a.add(4);
    EXPECT_EQ(b.value(), 5u);
    EXPECT_EQ(other.value(), 0u);

    obs::Gauge &gauge = registry.gauge("test_gauge", "help");
    gauge.set(2.5);
    gauge.add(-1.0);
    EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(Registry, HistogramDataQuantilesAndMerge)
{
    obs::HistogramData h;
    EXPECT_EQ(h.quantile(0.5), 0.0); // empty guard
    h.observe(3.0);
    EXPECT_EQ(h.quantile(0.95), 3.0); // single-sample guard: exact
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);

    obs::HistogramData other;
    for (double v : {1.0, 2.0, 50.0, 200.0})
        other.observe(v);
    h.merge(other);
    EXPECT_EQ(h.count, 5u);
    EXPECT_DOUBLE_EQ(h.sum, 256.0);
    // Bucketed quantiles are approximate (the selected bucket's mean)
    // but must stay monotone in q and within the observed range.
    double last = 0.0;
    for (double q : {0.1, 0.5, 0.9, 1.0}) {
        const double value = h.quantile(q);
        EXPECT_GE(value, last);
        EXPECT_GE(value, 1.0);
        EXPECT_LE(value, 200.0);
        last = value;
    }
}

TEST(Registry, LabelCardinalityIsBoundedByOverflowChild)
{
    obs::Registry registry;
    for (int i = 0; i < 200; ++i) {
        registry
            .counter("test_overflow_total", "help",
                     {{"id", std::to_string(i)}})
            .add();
    }
    const std::vector<obs::FamilySnapshot> families = registry.collect();
    ASSERT_EQ(families.size(), 1u);
    // At most kMaxChildren distinct children plus the shared overflow
    // child, which absorbed every lookup past the bound.
    EXPECT_LE(families[0].children.size(), obs::Registry::kMaxChildren + 1);
    bool found_overflow = false;
    double overflow_value = 0.0;
    for (const obs::ChildSnapshot &child : families[0].children) {
        for (const auto &[key, value] : child.labels) {
            if (key == "overflow" && value == "true") {
                found_overflow = true;
                overflow_value = child.value;
            }
        }
    }
    EXPECT_TRUE(found_overflow);
    EXPECT_GE(overflow_value, 1.0);
}

TEST(Registry, ConcurrentWritersAndScrapersStayExact)
{
    // The TSan target: four writer threads hammering one counter, one
    // gauge, and one histogram while a reader scrapes concurrently.
    // After the writers join, totals are exact.
    obs::Registry registry;
    obs::Counter &counter = registry.counter("tsan_total", "help");
    obs::Gauge &gauge = registry.gauge("tsan_gauge", "help");
    obs::Histogram &hist = registry.histogram(
        "tsan_ms", "help", obs::defaultLatencyBoundsMs());

    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                gauge.set(static_cast<double>(i));
                hist.observe(0.01 * (t + 1) * (i % 100 + 1));
            }
        });
    }
    std::thread scraper([&] {
        for (int i = 0; i < 50; ++i) {
            const std::string body = obs::renderPrometheus(registry);
            EXPECT_FALSE(body.empty());
        }
    });
    for (std::thread &writer : writers)
        writer.join();
    scraper.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(hist.count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    const obs::HistogramData snap = hist.snapshot();
    std::uint64_t bucketed = 0;
    for (const std::uint64_t c : snap.counts)
        bucketed += c;
    EXPECT_EQ(bucketed, snap.count);
}

// --------------------------------------------- Prometheus exposition

TEST(Exposition, GoldenRenderOfSmallRegistry)
{
    obs::Registry registry;
    registry.counter("alpha_total", "Things counted.", {{"kind", "a"}})
        .add(3);
    registry.gauge("beta_gauge", "A level.").set(1.5);
    auto bounds = std::make_shared<const std::vector<double>>(
        std::vector<double>{1.0, 10.0});
    obs::Histogram &hist =
        registry.histogram("gamma_ms", "A latency.", bounds);
    hist.observe(0.5);
    hist.observe(3.5);

    const std::string body = obs::renderPrometheus(registry);
    const std::string expected =
        "# HELP alpha_total Things counted.\n"
        "# TYPE alpha_total counter\n"
        "alpha_total{kind=\"a\"} 3\n"
        "# HELP beta_gauge A level.\n"
        "# TYPE beta_gauge gauge\n"
        "beta_gauge 1.5\n"
        "# HELP gamma_ms A latency.\n"
        "# TYPE gamma_ms histogram\n"
        "gamma_ms_bucket{le=\"1\"} 1\n"
        "gamma_ms_bucket{le=\"10\"} 2\n"
        "gamma_ms_bucket{le=\"+Inf\"} 2\n"
        "gamma_ms_sum 4\n"
        "gamma_ms_count 2\n";
    EXPECT_EQ(body, expected);

    std::string error;
    EXPECT_TRUE(obs::expositionLooksValid(body, &error)) << error;
}

TEST(Exposition, LabelValuesAreEscaped)
{
    obs::Registry registry;
    registry
        .counter("escape_total", "help",
                 {{"path", "a\"b\\c\nd"}})
        .add();
    const std::string body = obs::renderPrometheus(registry);
    EXPECT_NE(body.find("escape_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
              std::string::npos);
    std::string error;
    EXPECT_TRUE(obs::expositionLooksValid(body, &error)) << error;
}

TEST(Exposition, ValidatorRejectsStructuralBreakage)
{
    std::string error;
    EXPECT_FALSE(obs::expositionLooksValid("", &error));
    // A sample without HELP/TYPE comments.
    EXPECT_FALSE(obs::expositionLooksValid("orphan_total 1\n", &error));
    EXPECT_NE(error.find("orphan_total"), std::string::npos);
    // An unterminated label set.
    EXPECT_FALSE(obs::expositionLooksValid(
        "# HELP x h\n# TYPE x counter\nx{a=\"b 1\n", &error));
    // A non-numeric value.
    EXPECT_FALSE(obs::expositionLooksValid(
        "# HELP x h\n# TYPE x counter\nx zebra\n", &error));
}

TEST(Exposition, ProcessMetricsCoverCompilerAndSimdCounters)
{
    const std::string body = obs::renderProcessMetrics();
    std::string error;
    EXPECT_TRUE(obs::expositionLooksValid(body, &error)) << error;
    EXPECT_NE(body.find("jigsaw_transpile_cache_total{result=\"hit\"}"),
              std::string::npos);
    EXPECT_NE(body.find("jigsaw_transpile_cache_total{result=\"miss\"}"),
              std::string::npos);
    EXPECT_NE(body.find("jigsaw_simd_dispatch_total{backend=\"scalar\"}"),
              std::string::npos);
    EXPECT_NE(body.find("jigsaw_transpile_skeleton_rebinds_total"),
              std::string::npos);
}

TEST(Exposition, ProcessCountersEntriesKeepBenchReportNames)
{
    const obs::ProcessCounters counters =
        obs::ProcessCounters::snapshot();
    const auto transpile = counters.transpileEntries();
    EXPECT_STREQ(transpile[0].name, "transpile_cache_hits");
    EXPECT_STREQ(transpile[1].name, "transpile_cache_misses");
    EXPECT_STREQ(transpile[2].name, "transpile_skeleton_rebinds");
    const auto simd_entries = counters.simdEntries();
    EXPECT_STREQ(simd_entries[0].name, "simd/dispatch_scalar");
    EXPECT_STREQ(simd_entries[1].name, "simd/dispatch_avx2");
    EXPECT_STREQ(simd_entries[2].name, "simd/dispatch_avx512");
    // since() clamps at zero instead of underflowing.
    obs::ProcessCounters later = counters;
    later.transpileCacheHits += 7;
    EXPECT_EQ(later.since(counters).transpileCacheHits, 7u);
    EXPECT_EQ(counters.since(later).transpileCacheHits, 0u);
}

// --------------------------------------- scheduler metrics coverage

TEST(StreamMetrics, SchedulerPublishesIntoProcessRegistry)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = obsPrograms(dev, 2000);

    StreamOptions options;
    options.windowMs = 50.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();
    for (const JobHandle handle : handles)
        scheduler.wait(handle);

    const std::string body = obs::renderProcessMetrics();
    std::string error;
    ASSERT_TRUE(obs::expositionLooksValid(body, &error)) << error;
    // Stream lifecycle counters, the window counters, the per-class
    // latency histograms, and the adaptive-window gauge all surface in
    // one scrape.
    for (const char *needle : {
             "jigsaw_stream_submitted_total",
             "jigsaw_stream_jobs_total{outcome=\"completed\"}",
             "jigsaw_stream_windows_total{kind=\"merged\"}",
             "jigsaw_stream_merged_jobs_total",
             "jigsaw_stream_latency_ms_bucket{class=\"normal\"",
             "jigsaw_stream_queue_wait_ms_sum",
             "jigsaw_stream_execute_ms_count",
             "jigsaw_stream_backlog_jobs",
             "jigsaw_stream_inflight",
             "jigsaw_window_width_ms",
             "jigsaw_executor_cache_events_total",
             "jigsaw_transpile_cache_total",
             "jigsaw_simd_dispatch_total",
         }) {
        EXPECT_NE(body.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

TEST(StreamMetrics, ServiceMetricsTextMatchesEndpointRender)
{
    core::JigsawService service;
    const std::string body = service.metricsText();
    std::string error;
    EXPECT_TRUE(obs::expositionLooksValid(body, &error)) << error;
    EXPECT_NE(body.find("jigsaw_transpile_cache_total"),
              std::string::npos);
}

TEST(StreamMetrics, HttpEndpointServesOneScrapePerConnection)
{
    const device::DeviceModel dev = device::toronto();
    StreamOptions options;
    options.windowMs = 0.0;
    options.metricsPort = 0; // ephemeral
    StreamingScheduler scheduler(options);
    ASSERT_GT(scheduler.metricsPort(), 0);

    scheduler.wait(
        scheduler.submit(obsPrograms(dev, 2100)[0]).handle);

    const std::string response = httpGet(scheduler.metricsPort());
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    const std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);
    std::string error;
    EXPECT_TRUE(obs::expositionLooksValid(body, &error)) << error;
    EXPECT_NE(body.find("jigsaw_stream_submitted_total"),
              std::string::npos);
}

// ------------------------------------------------ per-job tracing

TEST(Trace, SoloPipelineSpansAreComplete)
{
    const device::DeviceModel dev = device::toronto();
    StreamOptions options;
    options.windowMs = 0.0;
    options.trace = std::make_shared<obs::TraceRecorder>();
    StreamingScheduler scheduler(options);
    const JobHandle handle =
        scheduler.submit(obsPrograms(dev, 2300)[0]).handle;
    scheduler.wait(handle);

    const std::vector<obs::TraceSpan> spans =
        options.trace->spansFor(handle.id);
    EXPECT_EQ(stagesOf(spans, 0),
              (std::vector<std::string>{"plan", "compile", "dispatch",
                                        "execute", "reconstruct"}));
    for (const obs::TraceSpan &span : spans) {
        EXPECT_EQ(span.windowId, 0u); // never windowed
        EXPECT_EQ(span.leaseId, 0u);  // executed locally
        EXPECT_GE(span.durationMs, 0.0);
    }
}

TEST(Trace, WindowedSpansCarryTheWindowId)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = obsPrograms(dev, 2400);
    StreamOptions options;
    options.windowMs = 50.0;
    options.trace = std::make_shared<obs::TraceRecorder>();
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();
    for (const JobHandle handle : handles)
        scheduler.wait(handle);

    std::set<std::uint64_t> window_ids;
    for (const JobHandle handle : handles) {
        const std::vector<obs::TraceSpan> spans =
            options.trace->spansFor(handle.id);
        const std::vector<std::string> stages = stagesOf(spans, 0);
        // plan -> compile -> window -> dispatch -> execute ->
        // reconstruct, in start order.
        EXPECT_EQ(stages,
                  (std::vector<std::string>{"plan", "compile", "window",
                                            "dispatch", "execute",
                                            "reconstruct"}));
        for (const obs::TraceSpan &span : spans) {
            const std::string stage = span.stage;
            if (stage == "plan" || stage == "compile")
                continue;
            EXPECT_NE(span.windowId, 0u) << stage;
            window_ids.insert(span.windowId);
        }
    }
    // All three jobs merged into the same window.
    EXPECT_EQ(window_ids.size(), 1u);
}

TEST(Trace, RetriedJobsGetAFreshAttemptEpoch)
{
    const device::DeviceModel dev = device::toronto();
    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run:first=1"));

    StreamOptions options;
    options.windowMs = 0.0;
    options.trace = std::make_shared<obs::TraceRecorder>();
    StreamingScheduler scheduler(options);
    const JobHandle handle =
        scheduler.submit(obsPrograms(dev, 2500)[0]).handle;
    scheduler.wait(handle);
    EXPECT_EQ(scheduler.stats().retries, 1u);

    const std::vector<obs::TraceSpan> spans =
        options.trace->spansFor(handle.id);
    std::set<std::uint32_t> attempts;
    for (const obs::TraceSpan &span : spans)
        attempts.insert(span.attempt);
    // The failed pass recorded under epoch 0, the successful retry
    // under epoch 1 — the attempts are distinguishable.
    EXPECT_EQ(attempts, (std::set<std::uint32_t>{0, 1}));
    const std::vector<std::string> retry_stages = stagesOf(spans, 1);
    EXPECT_NE(std::find(retry_stages.begin(), retry_stages.end(),
                        "reconstruct"),
              retry_stages.end());
}

TEST(Trace, WorkerTierExecuteSpansCarryLeaseIds)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = obsPrograms(dev, 2600);
    StreamOptions options;
    options.windowMs = 50.0;
    options.worker.workers = 2;
    options.trace = std::make_shared<obs::TraceRecorder>();
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();
    for (const JobHandle handle : handles)
        scheduler.wait(handle);
    ASSERT_GE(scheduler.stats().leasesGranted, 1u);

    for (const JobHandle handle : handles) {
        const std::vector<obs::TraceSpan> spans =
            options.trace->spansFor(handle.id);
        bool saw_leased_execute = false;
        for (const obs::TraceSpan &span : spans) {
            if (std::string(span.stage) == "execute" && span.leaseId != 0)
                saw_leased_execute = true;
        }
        EXPECT_TRUE(saw_leased_execute) << "job " << handle.id;
    }
}

TEST(Trace, WorkerCrashRedispatchStillTracesCompletion)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = obsPrograms(dev, 2700);
    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("worker.crash:first=1"));

    StreamOptions options;
    options.windowMs = 50.0;
    options.worker.workers = 2;
    options.worker.heartbeatTimeoutMs = 50.0;
    options.trace = std::make_shared<obs::TraceRecorder>();
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();
    for (const JobHandle handle : handles)
        scheduler.wait(handle);

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_GE(stats.leasesRevoked + stats.localFallbacks, 1u);
    // Whatever the fleet did, every job's trace still ends with an
    // execute and a reconstruct span on its final attempt.
    for (const JobHandle handle : handles) {
        const std::vector<obs::TraceSpan> spans =
            options.trace->spansFor(handle.id);
        ASSERT_FALSE(spans.empty());
        std::uint32_t last_attempt = 0;
        for (const obs::TraceSpan &span : spans)
            last_attempt = std::max(last_attempt, span.attempt);
        const std::vector<std::string> stages =
            stagesOf(spans, last_attempt);
        EXPECT_NE(std::find(stages.begin(), stages.end(), "execute"),
                  stages.end());
        EXPECT_NE(std::find(stages.begin(), stages.end(), "reconstruct"),
                  stages.end());
    }
}

TEST(Trace, RecorderEvictsOldestJobsFifo)
{
    obs::TraceRecorder recorder(2);
    recorder.record(1, 0, "plan", 0.0, 1.0, 0, 0);
    recorder.record(2, 0, "plan", 1.0, 1.0, 0, 0);
    recorder.record(3, 0, "plan", 2.0, 1.0, 0, 0);
    EXPECT_EQ(recorder.jobIds(),
              (std::vector<std::uint64_t>{2, 3}));
    EXPECT_TRUE(recorder.spansFor(1).empty());
    EXPECT_EQ(recorder.totalSpans(), 2u);
}

TEST(Trace, JsonLinesShapeIsStable)
{
    obs::TraceRecorder recorder;
    recorder.record(7, 1, "execute", 1.5, 2.25, 3, 9);
    const std::string lines = recorder.toJsonLines();
    EXPECT_EQ(lines.rfind("{\"job\":7,\"attempt\":1,\"stage\":"
                          "\"execute\",\"start_ms\":1.500,"
                          "\"dur_ms\":2.250,\"thread\":",
                          0),
              0u);
    EXPECT_NE(lines.find(",\"window\":3,\"lease\":9}\n"),
              std::string::npos);
}

} // namespace
} // namespace jigsaw
