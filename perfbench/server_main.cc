// Benchmark server harness: runs the program (GaaWebServer behind the
// sharded TcpServer) for one workload in its own process, pinned to the
// CPUs it is given.  It prints "PORT <n>" once it is listening, serves
// until a "stop" line (or EOF) arrives on stdin, then writes a JSON report
// of the server-side counters to --report.
//
// With --trace 1 the harness serves through span-recording decorators on
// the program's public seams (see spans.h) and samples the program's own
// request traces, so the report also carries the per-layer span map.
//
//   perfbench_server --workload <name> --cpus 0,1 --trace 0|1 --report <path>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/tcp_server.h"
#include "integration/gaa_web_server.h"
#include "spans.h"
#include "util/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gaa::web::GaaWebServer;

// static_memo: a threat-gated grant with no effect conditions.  The
// literal threat comparison is memoizable behind the threat-epoch fence,
// so repeat requests are decided from the decision memo.
constexpr const char* kMemoPolicy =
    "pos_access_right apache *\n"
    "pre_cond_system_threat_level local <high\n";

// paper_mixed, the paper's section 7.2 configuration: the system-wide
// BadGuys blacklist ...
constexpr const char* kBlacklistSystemPolicy =
    "eacl_mode 1\n"
    "neg_access_right * *\n"
    "pre_cond_accessid GROUP local BadGuys\n";

// ... and the local signature policy with E7's widened signature list, an
// administrator notification and blacklisting of the offending address.
constexpr const char* kSignatureLocalPolicy = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////* *cmd.exe*
rr_cond_notify local on:failure/sysadmin/info:attack
rr_cond_update_log local on:failure/BadGuys/info:ip
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)";

// tenant_churn: every tenant installs the same two screening policies
// (interned once by the IR store); one tenant in ten adds a unique local
// screening entry.  All conditions are pure, so decisions memoize.
std::string SharedScreeningPolicy(int index) {
  std::string text;
  for (int i = 0; i < 27; ++i) {
    text += "neg_access_right apache *\n";
    text += "pre_cond_accessid HOST local 172.16." +
            std::to_string((index * 27 + i) % 250) + ".0/24\n";
  }
  text += "pos_access_right apache *\n";
  return text;
}

std::string TenantLocalPolicy(int tenant, int variant) {
  if (tenant % 10 != 0) return "pos_access_right apache *\n";
  return "neg_access_right apache *\n"
         "pre_cond_accessid HOST local 10." +
         std::to_string(tenant / 250 + variant) + "." +
         std::to_string(tenant % 250) +
         ".0/24\n"
         "pos_access_right apache *\n";
}

/// Rate at which tenant_churn's writer republishes tenant 0's policy.
constexpr auto kPublishPeriod = std::chrono::milliseconds(50);

bool Configure(Workload workload, GaaWebServer& gws) {
  gws.AddUser("alice", "wonder");
  switch (workload) {
    case Workload::kStaticMemo:
      return gws.SetLocalPolicy("/", kMemoPolicy).ok();
    case Workload::kPaperMixed:
      return gws.AddSystemPolicy(kBlacklistSystemPolicy).ok() &&
             gws.SetLocalPolicy("/", kSignatureLocalPolicy).ok();
    case Workload::kTenantChurn: {
      if (!gws.SetLocalPolicy("/", "pos_access_right apache *\n").ok()) {
        return false;
      }
      const std::string shared[] = {SharedScreeningPolicy(0),
                                    SharedScreeningPolicy(1)};
      for (int t = 0; t < kTenants; ++t) {
        const std::string name = TenantName(t);
        if (!gws.AddTenant(name, TenantHost(t)).ok()) return false;
        for (const std::string& policy : shared) {
          if (!gws.AddTenantSystemPolicy(name, policy).ok()) return false;
        }
        if (!gws.SetTenantLocalPolicy(name, "/", TenantLocalPolicy(t, 0))
                 .ok()) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool ParseCpuList(const std::string& text, std::vector<int>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    if (item.empty() || item.find_first_not_of("0123456789") !=
                            std::string::npos) {
      return false;
    }
    out->push_back(std::stoi(item));
    pos = comma + 1;
  }
  return !out->empty();
}

bool PinToCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::uint64_t CounterSum(gaa::telemetry::MetricRegistry& registry,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& entry : registry.List()) {
    if (entry.name == name && entry.counter != nullptr) {
      total += entry.counter->Value();
    }
  }
  return total;
}

/// Quantile of the sum of every labelled histogram called `name`.
double HistogramQuantile(gaa::telemetry::MetricRegistry& registry,
                         const std::string& name, double q) {
  gaa::telemetry::Histogram::Snapshot merged;
  for (const auto& entry : registry.List()) {
    if (entry.name != name || entry.histogram == nullptr) continue;
    gaa::telemetry::Histogram::Snapshot snap = entry.histogram->TakeSnapshot();
    if (merged.counts.empty()) {
      merged = std::move(snap);
      continue;
    }
    if (snap.bounds != merged.bounds) continue;
    for (std::size_t i = 0; i < merged.counts.size(); ++i) {
      merged.counts[i] += snap.counts[i];
    }
    merged.count += snap.count;
    merged.sum += snap.sum;
    merged.max = std::max(merged.max, snap.max);
  }
  return merged.Quantile(q);
}

/// Per-request split of one sampled program trace into its top-level
/// spans; `other` is the pipeline time no top-level span covers.
struct TraceSplit {
  double total = 0, queue = 0, parse = 0, check = 0, handler = 0,
         respond = 0, other = 0;
};

TraceSplit SplitTrace(const gaa::telemetry::RequestTrace& trace) {
  TraceSplit split;
  split.total = static_cast<double>(trace.DurationUs());
  double covered = 0;
  for (const gaa::telemetry::Span& span : trace.spans()) {
    if (span.depth != 0 || span.end_us == 0) continue;
    const double d = static_cast<double>(span.DurationUs());
    covered += d;
    if (span.name == "queue") split.queue += d;
    if (span.name == "parse") split.parse += d;
    if (span.name == "access.check") split.check += d;
    if (span.name == "handler") split.handler += d;
    if (span.name == "respond") split.respond += d;
  }
  split.other = std::max(0.0, split.total - covered);
  return split;
}

class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Append(key, buf);
  }
  void Append(const std::string& key, const std::string& raw_json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + raw_json;
  }
  std::string Str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  Workload workload = Workload::kStaticMemo;
  std::vector<int> cpus;
  bool trace = false;
  std::string report;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
    } else if (key == "--cpus") {
      if (!ParseCpuList(value, &args->cpus)) return false;
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--report") {
      args->report = value;
    } else {
      return false;
    }
  }
  return have_workload && !args->cpus.empty() && !args->report.empty();
}

int Run(const Args& args) {
  if (!PinToCpus(args.cpus)) {
    std::fprintf(stderr, "server: sched_setaffinity failed\n");
    return 1;
  }

  GaaWebServer::Options options;
  options.use_real_clock = true;
  // End-to-end runs keep the tracer off; the traced run samples every
  // request and keeps a ring deep enough for the sampler below.
  options.tuning.trace_sample_period = args.trace ? 1 : 0;
  options.tuning.trace_ring_capacity = args.trace ? 4096 : 128;
  options.notification_latency_us = 100;
  options.asynchronous_notification = args.workload == Workload::kPaperMixed;
  GaaWebServer gws(BuildSite(), options);

  // Traced run: decorate the evaluation services before any request runs.
  SpanRecorder recorder;
  gaa::core::EvalServices& services = gws.api().services();
  const gaa::core::EvalServices undecorated = services;
  std::unique_ptr<SpanIdsChannel> span_ids;
  std::unique_ptr<SpanAuditSink> span_audit;
  std::unique_ptr<SpanNotifier> span_notifier;
  if (args.trace) {
    span_ids = std::make_unique<SpanIdsChannel>(services.ids, &recorder);
    span_audit = std::make_unique<SpanAuditSink>(services.audit, &recorder);
    span_notifier =
        std::make_unique<SpanNotifier>(services.notifier, &recorder);
    services.ids = span_ids.get();
    services.audit = span_audit.get();
    services.notifier = span_notifier.get();
  }

  if (!Configure(args.workload, gws)) {
    std::fprintf(stderr, "server: policy configuration failed\n");
    return 1;
  }

  // The traced run serves through its own WebServer so the access
  // controller can be decorated; it is wired exactly as GaaWebServer wires
  // its built-in one.
  gaa::http::WebServer* serving = &gws.server();
  std::unique_ptr<SpanController> span_controller;
  std::unique_ptr<gaa::http::WebServer> traced_server;
  if (args.trace) {
    span_controller =
        std::make_unique<SpanController>(&gws.controller(), &recorder);
    traced_server = std::make_unique<gaa::http::WebServer>(
        &gws.tree(), span_controller.get(), &gws.clock(),
        gaa::http::WebServer::Options{});
    traced_server->set_tenant_router(&gws.tenant_router());
    traced_server->set_tenants_view([&gws] { return gws.RenderTenantsJson(); });
    traced_server->set_telemetry(&gws.telemetry());
    SpanIdsChannel* ids_channel = span_ids.get();
    traced_server->set_malformed_hook(
        [ids_channel](gaa::http::RequestDefect defect,
                      const std::string& detail,
                      gaa::util::Ipv4Address client_ip) {
          gaa::core::IdsReport report;
          report.kind = gaa::core::ReportKind::kIllFormedRequest;
          report.source_ip = client_ip.ToString();
          report.attack_type = gaa::http::RequestDefectName(defect);
          report.severity = 3;
          report.confidence = 0.8;
          report.detail = detail;
          ids_channel->Report(report);
        });
    traced_server->set_request_observer(
        [&gws, &recorder](std::string_view, std::string_view target,
                          gaa::util::Ipv4Address client_ip, int) {
          SpanRecorder::Scope span(&recorder, Layer::kIdsObserve);
          gws.ids().ObserveRequest(client_ip.ToString(), std::string(target),
                                   gws.clock().Now());
        });
    serving = traced_server.get();
  }

  // Half the server's CPUs run event loops, the rest run GAA workers.
  gaa::http::TcpServer::Options tcp_options;
  tcp_options.port = 0;
  tcp_options.reactor_shards = std::max<std::size_t>(1, args.cpus.size() / 2);
  tcp_options.worker_threads =
      std::max<std::size_t>(1, args.cpus.size() - tcp_options.reactor_shards);
  tcp_options.max_connections = 256;
  tcp_options.tick_interval_ms = 100;
  tcp_options.lag_probe_interval_ms = 100;
  gaa::http::TcpServer tcp(serving, tcp_options);
  gws.WireIdsTick(&tcp);
  auto started = tcp.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: start failed: %s\n",
                 started.error().ToString().c_str());
    return 1;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(tcp.port()));
  std::fflush(stdout);

  std::atomic<bool> stop{false};

  // Monitor: the highest threat level seen, and (traced run) a sample of
  // the program's completed request traces.
  std::atomic<int> threat_max{0};
  std::vector<TraceSplit> splits;
  std::thread monitor([&] {
    std::uint64_t last_trace_id = 0;
    while (!stop.load()) {
      const int level = static_cast<int>(gws.state().threat_level());
      if (level > threat_max.load()) threat_max.store(level);
      if (args.trace && splits.size() < 400000) {
        for (const auto& trace : gws.telemetry().tracer().Recent(256)) {
          if (trace.id() <= last_trace_id) continue;
          last_trace_id = trace.id();
          if (trace.target.rfind("/__status", 0) == 0) continue;
          splits.push_back(SplitTrace(trace));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // tenant_churn's writer: republish tenant 0's local policy at a fixed
  // rate, timing each publish.
  std::vector<double> publish_ms;
  std::thread writer;
  if (args.workload == Workload::kTenantChurn) {
    writer = std::thread([&] {
      auto next = std::chrono::steady_clock::now();
      for (int variant = 1; !stop.load(); variant ^= 1) {
        next += kPublishPeriod;
        std::this_thread::sleep_until(next);
        gaa::util::Stopwatch watch;
        const bool ok =
            gws.SetTenantLocalPolicy(TenantName(0), "/",
                                     TenantLocalPolicy(0, variant))
                .ok();
        publish_ms.push_back(watch.ElapsedMs());
        if (!ok) std::fprintf(stderr, "server: republish failed\n");
      }
    });
  }

  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
  }
  stop.store(true);
  if (writer.joinable()) writer.join();
  monitor.join();
  tcp.Stop();
  services = undecorated;  // the decorators die before gws does

  gaa::telemetry::MetricRegistry& registry = gws.telemetry().registry();
  const gaa::http::TcpServer::Stats stats = tcp.stats();
  JsonObject report;
  report.Add("requests", static_cast<double>(stats.requests));
  report.Add("inline_served", static_cast<double>(stats.inline_served));
  report.Add("accepted", static_cast<double>(stats.accepted));
  report.Add("ring_high_watermark",
             static_cast<double>(stats.ring_high_watermark));
  report.Add("dispatch_delay_p99_us",
             HistogramQuantile(registry, "transport_dispatch_delay_us", 0.99));
  report.Add("memo_hits", static_cast<double>(CounterSum(
                              registry, "gaa_decision_cache_hits_total")));
  report.Add("memo_misses", static_cast<double>(CounterSum(
                                registry, "gaa_decision_cache_misses_total")));
  JsonObject ids_reports;  // by report kind
  for (const auto& entry : registry.List()) {
    if (entry.name == "ids_reports_total" && entry.counter != nullptr) {
      std::string kind = entry.labels;
      kind.erase(std::remove(kind.begin(), kind.end(), '"'), kind.end());
      ids_reports.Add(kind, static_cast<double>(entry.counter->Value()));
    }
  }
  report.Append("ids_reports", ids_reports.Str());
  report.Add("threat_max", threat_max.load());
  report.Add("ir_bytes",
             static_cast<double>(gws.policy_store().ir_store_stats().bytes));
  // The streaming IDS thresholds the workloads' per-client shapes are sized
  // against, as the running program has them.
  const auto& ids_options = gws.ids().stream().options();
  JsonObject thresholds;
  thresholds.Add("window_s", static_cast<double>(ids_options.window_us) / 1e6);
  thresholds.Add("client_rate", ids_options.client_rate_threshold);
  thresholds.Add("uri_rate", ids_options.uri_rate_threshold);
  thresholds.Add("fanout", ids_options.fanout_threshold);
  thresholds.Add("uri_rate_weight", ids_options.uri_rate_weight);
  thresholds.Add("report_threshold", ids_options.report_threshold);
  report.Append("ids_thresholds", thresholds.Str());
  report.Add("publish_p50_ms", Percentile(publish_ms, 0.5));

  if (args.trace) {
    JsonObject layers;
    const std::vector<LayerSummary> summary = recorder.Summarize();
    for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
      JsonObject layer;
      layer.Add("calls", static_cast<double>(summary[i].calls));
      layer.Add("p50_us", summary[i].self_p50_us);
      layer.Add("p99_us", summary[i].self_p99_us);
      layers.Append(LayerName(static_cast<Layer>(i)), layer.Str());
    }
    report.Append("layers", layers.Str());

    JsonObject traces;
    traces.Add("samples", static_cast<double>(splits.size()));
    auto median = [&splits](double TraceSplit::*field) {
      std::vector<double> values;
      values.reserve(splits.size());
      for (const TraceSplit& split : splits) values.push_back(split.*field);
      return Percentile(std::move(values), 0.5);
    };
    traces.Add("total_p50_us", median(&TraceSplit::total));
    traces.Add("queue_p50_us", median(&TraceSplit::queue));
    traces.Add("parse_p50_us", median(&TraceSplit::parse));
    traces.Add("check_p50_us", median(&TraceSplit::check));
    traces.Add("handler_p50_us", median(&TraceSplit::handler));
    traces.Add("respond_p50_us", median(&TraceSplit::respond));
    traces.Add("other_p50_us", median(&TraceSplit::other));
    report.Append("traces", traces.Str());
  }

  FILE* out = std::fopen(args.report.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "server: cannot write %s\n", args.report.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", report.Str().c_str());
  std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_server --workload <name> --cpus <list> "
                 "--trace 0|1 --report <path>\n");
    return 2;
  }
  return perfbench::Run(args);
}
