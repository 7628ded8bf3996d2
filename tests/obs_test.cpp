// Observability subsystem: the metrics registry's instrument identity and
// JSON snapshot, span/ring semantics of the Tracer (nesting, bounded
// flight ring, off-switch), the merged multi-rank Chrome trace export,
// flight-recorder dumps, and the obs-off bitwise guarantee (tracing a run
// must not change a single bit of the model state).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/campaign.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "state/state.hpp"
#include "util/json.hpp"
#include "test_temp_dir.hpp"

namespace ca::obs {
namespace {

using test_support::temp_dir;

// --- metrics registry -------------------------------------------------------

TEST(Metrics, InstrumentIdentityAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("comm.messages");
  Counter& b = reg.counter("comm.messages");
  EXPECT_EQ(&a, &b) << "same (name, labels) must return the same instrument";
  // Label order must not matter at registration.
  Counter& r0 = reg.counter("comm.bytes", {{"rank", "0"}, {"dir", "tx"}});
  Counter& r0b = reg.counter("comm.bytes", {{"dir", "tx"}, {"rank", "0"}});
  Counter& r1 = reg.counter("comm.bytes", {{"rank", "1"}, {"dir", "tx"}});
  EXPECT_EQ(&r0, &r0b);
  EXPECT_NE(&r0, &r1) << "distinct labels must be distinct instruments";
  a.add(3);
  a.add();
  EXPECT_EQ(a.value(), 4u);

  Gauge& g = reg.gauge("service.queue_depth");
  g.set(5.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(Metrics, HistogramBucketsAndValidation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("wait", {0.01, 0.1, 1.0});
  h.observe(0.005);  // <= 0.01
  h.observe(0.05);   // <= 0.1
  h.observe(0.05);
  h.observe(0.5);    // <= 1.0
  h.observe(50.0);   // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_NEAR(h.sum(), 50.605, 1e-12);
  // First registration wins: re-registering with different bounds keeps
  // the original instrument.
  Histogram& again = reg.histogram("wait", {1.0, 2.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.upper_bounds().size(), 3u);
  // Malformed bounds are rejected loudly.
  EXPECT_THROW(reg.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dup", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("desc", {2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, SnapshotShape) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "v"}}).add(7);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {1.0}).observe(0.5);
  const util::Json doc = reg.snapshot();
  ASSERT_TRUE(doc.is_object());
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const util::Json* arr = doc.find(key);
    ASSERT_NE(arr, nullptr) << key;
    ASSERT_TRUE(arr->is_array()) << key;
    ASSERT_EQ(arr->items().size(), 1u) << key;
  }
  const util::Json& c = doc.find("counters")->items()[0];
  EXPECT_EQ(c.find("name")->as_string(), "c");
  EXPECT_EQ(c.find("labels")->find("k")->as_string(), "v");
  EXPECT_DOUBLE_EQ(c.find("value")->as_double(), 7.0);
  const util::Json& h = doc.find("histograms")->items()[0];
  // One finite bucket plus the +Inf overflow bucket.
  ASSERT_EQ(h.find("buckets")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(h.find("buckets")->items()[0].find("count")->as_double(),
                   1.0);
  EXPECT_DOUBLE_EQ(h.find("count")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(h.find("sum")->as_double(), 0.5);
}

TEST(Metrics, PrometheusExpositionGoldenFormat) {
  // Golden test of the text exposition: names sanitized, one TYPE line
  // per family, labels rendered sorted, histogram buckets CUMULATIVE
  // with the +Inf bucket equal to _count.
  MetricsRegistry reg;
  reg.counter("service.jobs_completed").add(3);
  reg.counter("comm.msgs", {{"phase", "halo"}}).add(12);
  reg.gauge("service.queue-depth").set(2);
  Histogram& h = reg.histogram("step.seconds", {0.01, 0.1, 1.0},
                               {{"core", "ca"}});
  h.observe(0.005);
  h.observe(0.05);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(50.0);  // overflow

  const std::string got = to_prometheus(reg.snapshot());
  const std::string want =
      "# TYPE service_jobs_completed counter\n"
      "service_jobs_completed 3\n"
      "# TYPE comm_msgs counter\n"
      "comm_msgs{phase=\"halo\"} 12\n"
      "# TYPE service_queue_depth gauge\n"
      "service_queue_depth 2\n"
      "# TYPE step_seconds histogram\n"
      "step_seconds_bucket{core=\"ca\",le=\"0.01\"} 1\n"
      "step_seconds_bucket{core=\"ca\",le=\"0.1\"} 3\n"
      "step_seconds_bucket{core=\"ca\",le=\"1\"} 4\n"
      "step_seconds_bucket{core=\"ca\",le=\"+Inf\"} 5\n"
      "step_seconds_sum{core=\"ca\"} 50.605\n"
      "step_seconds_count{core=\"ca\"} 5\n";
  EXPECT_EQ(got, want);
}

TEST(Metrics, PrometheusExpositionMergesFamiliesAndEscapes) {
  // Same name, different labels: ONE TYPE line, two sample lines.  Label
  // values with quotes/backslashes/newlines are escaped per the spec.
  MetricsRegistry reg;
  reg.counter("retries", {{"job", "a"}}).add(1);
  reg.counter("retries", {{"job", "b"}}).add(2);
  reg.gauge("weird", {{"msg", "say \"hi\"\\\n"}}).set(1.5);
  const std::string got = to_prometheus(reg.snapshot());
  EXPECT_EQ(got,
            "# TYPE retries counter\n"
            "retries{job=\"a\"} 1\n"
            "retries{job=\"b\"} 2\n"
            "# TYPE weird gauge\n"
            "weird{msg=\"say \\\"hi\\\"\\\\\\n\"} 1.5\n");
  // An empty registry renders an empty document, not a parse hazard.
  EXPECT_EQ(to_prometheus(MetricsRegistry{}.snapshot()), "");
}

// --- tracer / ring ----------------------------------------------------------

TraceOptions ring_opts(int events = 64) {
  TraceOptions o;
  o.trace = false;
  o.dump_on_failure = true;  // arm the ring without a collector
  o.ring_events = events;
  return o;
}

TEST(Tracer, SpansNestAndRecordOnFinish) {
  Tracer t;
  t.configure(ring_opts(), /*tid=*/0);
  {
    Span outer = t.span("outer", "core");
    {
      Span inner = t.span("inner", "compute");
    }  // inner finishes (records) first
  }
  const auto ring = t.ring_snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_STREQ(ring[0].name, "inner");
  EXPECT_STREQ(ring[1].name, "outer");
  // Proper nesting: the inner interval lies within the outer one.
  EXPECT_GE(ring[0].ts_us, ring[1].ts_us);
  EXPECT_LE(ring[0].ts_us + ring[0].dur_us,
            ring[1].ts_us + ring[1].dur_us + 1e-6);
}

TEST(Tracer, FlightRingIsBoundedAndCountsDrops) {
  Tracer t;
  t.configure(ring_opts(/*events=*/8), /*tid=*/3);
  for (int i = 0; i < 20; ++i) t.instant("beat", "comm");
  EXPECT_EQ(t.ring_snapshot().size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;
  TraceOptions off;
  off.trace = false;
  off.dump_on_failure = false;
  t.configure(off, /*tid=*/0);
  EXPECT_FALSE(t.recording());
  Span s = t.span("step", "core");
  EXPECT_FALSE(s.active());
  s.finish();
  t.instant("beat");
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.ring_snapshot().empty());
  // The off-switch also suppresses the dump file.
  EXPECT_EQ(t.dump_flight("should not be written"), "");
}

TEST(Tracer, FlightDumpWritesReadablePostmortem) {
  const std::string dir = temp_dir("dump");
  Tracer t;
  TraceOptions o = ring_opts();
  o.dump_dir = dir;
  t.configure(o, /*tid=*/2);
  { Span s = t.span("exchange_wait", "exchange"); }
  t.instant("peer_dead", "comm", "rank 1 silent past heartbeat");
  const std::string path = t.dump_flight("PeerDeadError: rank 1");
  EXPECT_EQ(path, dir + "/obs_dump_rank2.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const util::Json doc = util::Json::parse(ss.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "ca-agcm/obs-flight/v1");
  EXPECT_EQ(doc.find("rank")->as_double(), 2.0);
  EXPECT_EQ(doc.find("reason")->as_string(), "PeerDeadError: rank 1");
  const util::Json* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  EXPECT_EQ(events->items()[0].find("name")->as_string(), "exchange_wait");
  EXPECT_EQ(events->items()[1].find("name")->as_string(), "peer_dead");
  EXPECT_EQ(events->items()[1].find("detail")->as_string(),
            "rank 1 silent past heartbeat");
}

TEST(Tracer, SecondIncidentNeverClobbersTheFirstDump) {
  // Two incidents in one run — or two jobs whose rank ids collide — used
  // to share obs_dump_rank<r>.json, the later truncating the earlier
  // postmortem.  The first dump keeps the legacy name; later ones get a
  // monotonic .incident<seq> suffix.  The sequence is probe-based, so it
  // survives Tracer reconstruction across attempts (each attempt builds
  // fresh tracers whose in-memory counters restart).
  const std::string dir = temp_dir("dump_noclobber");
  TraceOptions o = ring_opts();
  o.dump_dir = dir;

  Tracer first;
  first.configure(o, /*tid=*/3);
  first.instant("peer_dead", "comm", "incident one");
  const std::string p0 = first.dump_flight("first incident");
  EXPECT_EQ(p0, dir + "/obs_dump_rank3.json");

  Tracer second;  // a fresh tracer, as a retried attempt would build
  second.configure(o, /*tid=*/3);
  second.instant("peer_dead", "comm", "incident two");
  const std::string p1 = second.dump_flight("second incident");
  EXPECT_EQ(p1, dir + "/obs_dump_rank3.incident1.json");
  const std::string p2 = second.dump_flight("third incident");
  EXPECT_EQ(p2, dir + "/obs_dump_rank3.incident2.json");

  // The first postmortem is intact, and each dump kept its own reason.
  auto reason_of = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return util::Json::parse(ss.str()).find("reason")->as_string();
  };
  EXPECT_EQ(reason_of(p0), "first incident");
  EXPECT_EQ(reason_of(p1), "second incident");
  EXPECT_EQ(reason_of(p2), "third incident");
}

// --- merged multi-rank export ----------------------------------------------

core::DycoreConfig small_cfg() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 1;
  return c;
}

TEST(TraceExport, MultiRankRunMergesIntoValidChromeTrace) {
  TraceCollector collector;
  comm::RunOptions opts;
  opts.obs.trace = true;
  opts.obs.ring_events = 32;  // force mid-run spills to the collector
  opts.trace_sink = &collector;
  opts.trace_pid = 7;
  comm::Runtime::run(2, opts, [&](comm::Context& ctx) {
    core::OriginalCore core(small_cfg(), ctx, core::DecompScheme::kYZ,
                            {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
    core::CampaignOptions opt;
    opt.steps = 2;
    // The diagnostics reduction is the run's collective: its span proves
    // the comm layer's phase instrumentation reaches the export.
    opt.diag_every = 1;
    opt.on_diagnostics = [](int, const core::GlobalDiag&) {};
    core::run_campaign(core, &ctx, xi, opt);
  });
  ASSERT_GT(collector.event_count(), 0u);
  const util::Json doc = collector.chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");

  // Both ranks contribute under the job pid, and the core's span
  // vocabulary is present on each rank's timeline.
  std::set<int> tids;
  std::set<std::string> names0;
  for (const util::Json& ev : doc.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() == "M") continue;
    EXPECT_DOUBLE_EQ(ev.find("pid")->as_double(), 7.0);
    const int tid = static_cast<int>(ev.find("tid")->as_double());
    tids.insert(tid);
    if (tid == 0) names0.insert(ev.find("name")->as_string());
  }
  EXPECT_EQ(tids, (std::set<int>{0, 1}));
  for (const char* expected : {"campaign", "step", "exchange_post",
                               "exchange_wait", "collective"})
    EXPECT_TRUE(names0.count(expected))
        << "rank 0 timeline lacks span '" << expected << "'";

  // The export round-trips through its own validator from disk too.
  const std::string path = temp_dir("export") + "/trace.json";
  ASSERT_TRUE(collector.write(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(validate_chrome_trace(util::Json::parse(ss.str())), "");
}

// --- obs off = seed behavior ------------------------------------------------

TEST(TraceExport, TracingDoesNotChangeModelStateBitwise) {
  // The whole subsystem must be a pure observer: a traced run and an
  // obs-disabled run of the same campaign produce bit-identical states.
  auto run = [&](bool traced, TraceCollector* sink,
                 std::vector<state::State>& out) {
    out.resize(2);
    std::mutex mu;
    comm::RunOptions opts;
    opts.obs.trace = traced;
    opts.obs.dump_on_failure = traced;
    opts.trace_sink = sink;
    comm::Runtime::run(2, opts, [&](comm::Context& ctx) {
      core::OriginalCore core(small_cfg(), ctx, core::DecompScheme::kYZ,
                              {1, 2, 1});
      auto xi = core.make_state();
      core.initialize(xi,
                      {.kind = state::InitialCondition::kPlanetaryWave});
      core::CampaignOptions opt;
      opt.steps = 3;
      core::run_campaign(core, &ctx, xi, opt);
      std::lock_guard<std::mutex> lock(mu);
      out[static_cast<std::size_t>(ctx.world_rank())] = std::move(xi);
    });
  };
  std::vector<state::State> off_states, on_states;
  TraceCollector collector;
  run(false, nullptr, off_states);
  run(true, &collector, on_states);
  EXPECT_GT(collector.event_count(), 0u);
  for (std::size_t r = 0; r < off_states.size(); ++r)
    EXPECT_EQ(state::State::max_abs_diff(off_states[r], on_states[r],
                                         off_states[r].interior()),
              0.0)
        << "tracing changed rank " << r << "'s state";
}

}  // namespace
}  // namespace ca::obs
