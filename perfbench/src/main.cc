// perfbench: the OrpheusDB versioning benchmark program.
//
//   perfbench --workload=<sci_explore|cur_commit> --seed=<n> --seconds=<s>
//             [--trace=0|1] [--out=<dir>]
//
// Stands up one engine and an in-process TCP server, runs 4 closed-loop
// clients (one per core of the reference box) over loopback for the
// window with zero think time, checks every
// answer, and prints one JSON object (the full result) as the last
// line of stdout. perfbench/run.py builds this binary, runs it, and
// turns that object into tables and the benchmark's result line.
//
// --trace=0 measures the end-to-end metrics. --trace=1 mixes traced
// and untraced quarter-second slices, samples the engine's
// `traces recent` ring, times direct calls into single layers, and
// writes every span to <out>/spans-<workload>-seed<n>.jsonl.

#include <malloc.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "harness.h"
#include "layers.h"
#include "obs/procstats.h"
#include "server/server.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSessions = 4;
// setup_s is the median of this many full setups; the last is measured.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return false;
    a = a.substr(2);
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      return false;
    }
  }
  for (const auto& [k, v] : kv) {
    if (k == "workload") args->workload = v;
    else if (k == "seed") args->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "seconds") args->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "trace") args->trace = v == "1" || v == "true";
    else if (k == "out") args->out = v;
    else return false;
  }
  return (args->workload == "sci_explore" || args->workload == "cur_commit") &&
         args->seconds > 0;
}

std::string FsName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Metric sink that renders {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + JsonNumber(e.value) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Delta {
  const std::string& before;
  const std::string& after;
  double operator()(const std::string& series) const {
    return PromValue(after, series) - PromValue(before, series);
  }
};

// Throughput and p50 latencies are medians over the window's whole
// seconds: a burst of contention from outside the process that covers
// fewer than half of them does not move them. Replies after the last
// whole second are left out.
std::vector<std::vector<double>> BySecond(const std::vector<double>& values,
                                          const std::vector<double>& replied_at,
                                          int seconds) {
  std::vector<std::vector<double>> out(static_cast<size_t>(seconds));
  for (size_t i = 0; i < values.size(); ++i) {
    const auto second = static_cast<size_t>(replied_at[i]);
    if (second < out.size()) out[second].push_back(values[i]);
  }
  return out;
}

double MedianOpsPerSecond(const WindowResult& w, int seconds) {
  std::vector<double> ops(static_cast<size_t>(seconds), 0);
  for (int v = 0; v < kVerbCount; ++v) {
    const auto per = BySecond(w.latency[v], w.replied_at[v], seconds);
    for (size_t i = 0; i < per.size(); ++i) ops[i] += static_cast<double>(per[i].size());
  }
  return Median(ops);
}

void AddLatencies(const WindowResult& w, int seconds, Metrics* m) {
  static const struct {
    Verb verb;
    const char* name;
  } kReported[] = {{kCheckout, "checkout"}, {kRun, "query"}, {kCommit, "commit"}};
  for (const auto& r : kReported) {
    const std::vector<double>& lat = w.latency[r.verb];
    if (lat.empty()) continue;
    std::vector<double> medians;
    for (const std::vector<double>& second : BySecond(lat, w.replied_at[r.verb], seconds)) {
      if (!second.empty()) medians.push_back(Median(second));
    }
    m->Add(std::string(r.name) + "_p50_ms", Median(medians) * 1e3, "ms");
    // A p99 needs at least 1,000 samples to mean anything.
    if (lat.size() >= 1000) {
      m->Add(std::string(r.name) + "_p99_ms", Percentile(lat, 99) * 1e3, "ms");
    }
  }
}

// Mean per-stage time (ms) per verb over the ops sampled from the
// `traces recent` replies, deduplicated by op id.
std::map<std::string, double> StageMeans(const std::vector<std::string>& replies,
                                         uint64_t first_id) {
  static const char* kStages[] = {"parse", "lock_wait", "execute", "wal_enqueue",
                                  "group_commit_sync", "checkpoint"};
  std::set<uint64_t> seen;
  std::map<std::string, double> sums;
  std::map<std::string, int64_t> counts;
  for (const std::string& reply : replies) {
    std::istringstream lines(reply);
    std::string line;
    while (std::getline(lines, line)) {
      size_t id_pos = line.find("\"id\":");
      size_t verb_pos = line.find("\"verb\":\"");
      if (id_pos == std::string::npos || verb_pos == std::string::npos) continue;
      const uint64_t id = std::strtoull(line.c_str() + id_pos + 5, nullptr, 10);
      if (id < first_id || !seen.insert(id).second) continue;
      const size_t vstart = verb_pos + 8;
      const std::string verb = line.substr(vstart, line.find('"', vstart) - vstart);
      ++counts[verb];
      for (const char* stage : kStages) {
        const std::string key = std::string("\"") + stage + "\":";
        size_t pos = line.find(key, line.find("\"stages\":"));
        if (pos == std::string::npos) continue;
        sums[verb + "." + stage] += std::strtod(line.c_str() + pos + key.size(), nullptr);
      }
    }
  }
  std::map<std::string, double> means;
  for (int v = 0; v < kVerbCount; ++v) {
    const std::string verb = VerbName(v);
    for (const char* stage : kStages) {
      const std::string key = verb + "." + stage;
      means[key] = counts[verb] > 0 ? sums[key] / counts[verb] * 1e3 : 0;
    }
  }
  return means;
}

// First trace id the window can produce: the newest recorded op + 1.
uint64_t NextTraceId(orpheus::core::EngineApi* api) {
  auto session = api->NewSession();
  Result<std::string> r = api->Execute(session.get(), "traces recent 1");
  api->CloseSession(session.get(), false);
  uint64_t last = 0;
  if (r.ok()) {
    size_t pos = r.value().rfind("\"id\":");
    if (pos != std::string::npos) {
      last = std::strtoull(r.value().c_str() + pos + 5, nullptr, 10);
    }
  }
  return last + 1;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  for (const Span& s : spans) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"session\": " << s.session << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << JsonNumber(s.start_s)
        << ", \"end_s\": " << JsonNumber(s.end_s)
        << ", \"ok\": " << (s.ok ? "true" : "false") << "}\n";
  }
  return Status::OK();
}

struct Engine {
  std::unique_ptr<orpheus::core::EngineApi> api;
  std::unique_ptr<orpheus::server::Server> server;
  void Stop() {
    if (server) server->Stop();
    server.reset();
    api.reset();
  }
};

// Generates, loads (and optimizes) the workload's dataset into a fresh
// engine and starts the server; returns the wall time taken.
Result<double> Setup(Workload* workload, const std::string& dir, Engine* engine) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  orpheus::WallTimer timer;
  engine->api = std::make_unique<orpheus::core::EngineApi>();
  ORPHEUS_RETURN_NOT_OK(workload->Load(engine->api.get(), dir));
  orpheus::server::ServerOptions options;
  options.workers = kSessions + 1;  // +1: the metrics/traces monitor
  options.idle_timeout_sec = 0;
  engine->server = std::make_unique<orpheus::server::Server>(engine->api.get(), options);
  ORPHEUS_RETURN_NOT_OK(engine->server->Start());
  return timer.ElapsedSeconds();
}

// One throwaway setup in a child process; returns its wall time.
Result<double> SetupInChild(const Args& args, const std::string& dir) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
    Engine engine;
    Result<double> s = Setup(workload.get(), dir, &engine);
    if (!s.ok()) std::cerr << "perfbench: setup: " << s.status().ToString() << "\n";
    const double seconds = s.ok() ? s.value() : -1;
    engine.Stop();
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent && s.ok() ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  const bool got = read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || seconds < 0) {
    return Status::Internal("setup in a child process failed");
  }
  return seconds;
}

int Run(const Args& args) {
  const Clock::time_point epoch = Clock::now();
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  const std::string work = args.out + "/work-" + tag + "-" + std::to_string(getpid());
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << work << ": " << ec.message() << "\n";
    return 2;
  }

  auto fail = [&](const std::string& what, const Status& st) {
    std::cerr << "perfbench: " << what << ": " << st.ToString() << "\n";
    std::filesystem::remove_all(work, ec);
    return 2;
  };

  // --- Setup, repeated; the last repetition is the one measured. -----------
  // The others run in child processes (forked before this process
  // starts any thread), so the measured heap and RSS hold only the
  // measured engine.
  std::vector<double> setup_s;
  for (int rep = 1; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    Result<double> s = SetupInChild(args, work + "/setup" + std::to_string(rep));
    if (!s.ok()) return fail("setup", s.status());
    setup_s.push_back(s.value());
  }
  const std::string dir = work + "/setup0";
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  Engine engine;
  Result<double> measured_setup = Setup(workload.get(), dir, &engine);
  if (!measured_setup.ok()) return fail("setup", measured_setup.status());
  setup_s.push_back(measured_setup.value());
  orpheus::obs::ProcStatsSampler::Instance().Start(100);
  Status st = workload->Prepare(kSessions);
  if (!st.ok()) return fail("prepare", st);
  malloc_trim(0);  // hand the generator's freed buffers back before measuring RSS
  const uint64_t first_trace_id = NextTraceId(engine.api.get());
  const int exec_threads = orpheus::ExecThreads();
  const bool group_commit = engine.api->group_commit();

  // --- Measured window. -----------------------------------------------------
  WindowOptions wopts;
  wopts.sessions = kSessions;
  wopts.seconds = args.seconds;
  wopts.trace = args.trace;
  SpanLog span_log(epoch);
  Result<WindowResult> window_or =
      RunWindow(workload.get(), engine.server->port(), wopts, &span_log);
  if (!window_or.ok()) return fail("window", window_or.status());
  WindowResult& w = window_or.value();
  engine.server->Stop();
  const WorkloadFacts& facts = workload->facts();
  const Delta delta{w.scrape_before, w.scrape_after};

  // --- Direct layer calls (traced runs). -------------------------------------
  PartitionLayer part;
  StorageLayer storage;
  const std::string db_dir = dir + "/db";
  if (args.trace && facts.partitioned) {
    Result<PartitionLayer> p = MeasurePartitionLayer(
        engine.api.get(), facts.cvd, facts.preloaded_versions, args.seed, &span_log);
    if (!p.ok()) return fail("partition layer", p.status());
    part = p.value();
  }

  // --- Durability: reopen the final directory; time recovery. ---------------
  double recovery_s = 0;
  if (facts.durable) {
    engine.Stop();
    if (args.trace) {
      Result<StorageLayer> s = MeasureStorageOpen(db_dir, work + "/copy", &span_log);
      if (!s.ok()) return fail("storage layer", s.status());
      storage = s.value();
    }
    std::vector<double> opens;
    for (int i = 0; i < 3; ++i) {
      engine.api = std::make_unique<orpheus::core::EngineApi>();
      orpheus::WallTimer timer;
      st = engine.api->orpheus()->Open(db_dir);
      opens.push_back(timer.ElapsedSeconds());
      if (!st.ok()) return fail("reopen", st);
      if (i < 2) engine.api.reset();
    }
    recovery_s = Median(opens);
  }

  // --- Correctness. -----------------------------------------------------------
  Status check = workload->Check(engine.api.get());
  const int64_t disk_bytes = facts.durable ? DirBytes(db_dir) : 0;
  engine.Stop();

  // --- End-to-end metrics. ----------------------------------------------------
  const int whole_seconds = std::max(1, static_cast<int>(args.seconds));
  Metrics e2e;
  if (!args.trace) e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("ops_per_s", MedianOpsPerSecond(w, whole_seconds), "1/s");
  AddLatencies(w, whole_seconds, &e2e);
  e2e.Add("failed_frac",
          w.attempted > 0 ? static_cast<double>(w.failed) / static_cast<double>(w.attempted) : 0,
          "fraction");
  e2e.Add("rss_mb", PromValue(w.scrape_after, "orpheus_process_resident_bytes") / (1 << 20),
          "MB");
  if (facts.durable) {
    const double user_bytes =
        static_cast<double>(facts.distinct_records) * facts.num_attrs * 8.0;
    e2e.Add("disk_bytes_per_user_byte", static_cast<double>(disk_bytes) / user_bytes,
            "ratio");
    e2e.Add("recovery_s", recovery_s, "s");
  }

  // --- Per-layer metrics (traced runs). ----------------------------------------
  Metrics layer;
  if (args.trace) {
    const double ops = static_cast<double>(std::max<int64_t>(1, w.attempted));
    double server_s = 0;
    for (int v = 0; v < kVerbCount; ++v) {
      const std::string label = std::string("{verb=\"") + VerbName(v) + "\"}";
      server_s += delta("orpheus_op_latency_seconds_sum" + label);
    }
    // Client-observed minus server-measured time, per op: framing,
    // socket hops and the handler's wake-up.
    layer.Add("server.wire_ms", (w.latency_sum_s - server_s) / ops * 1e3, "ms");
    double monitor_bytes = static_cast<double>(w.scrape_before.size() + 2);
    for (const std::string& r : w.trace_lines) monitor_bytes += static_cast<double>(r.size() + 2);
    layer.Add("server.bytes_out_per_op",
              (delta("orpheus_net_bytes_total{dir=\"out\"}") - monitor_bytes) / ops, "B");

    const std::map<std::string, double> stages = StageMeans(w.trace_lines, first_trace_id);
    for (const auto& [key, ms] : stages) layer.Add("core." + key + "_ms", ms, "ms");
    layer.Add("core.lock_wait_exclusive_s",
              delta("orpheus_lock_wait_seconds_sum{mode=\"exclusive\"}"), "s");
    layer.Add("core.lock_wait_shared_s",
              delta("orpheus_lock_wait_seconds_sum{mode=\"shared\"}"), "s");
    layer.Add("process.cpu_ms_per_op",
              (delta("orpheus_process_cpu_user_seconds") +
               delta("orpheus_process_cpu_system_seconds")) / ops * 1e3,
              "ms");

    layer.Add("relstore.rows_scanned_per_op", delta("orpheus_exec_rows_scanned_total") / ops, "rows");
    layer.Add("relstore.pages_read_per_op", delta("orpheus_exec_pages_read_total") / ops, "pages");
    layer.Add("relstore.batches_per_op", delta("orpheus_exec_batches_total") / ops, "batches");
    for (const char* op : {"scan", "filter", "project", "join", "hash_build", "hash_probe",
                           "aggregate", "order_by"}) {
      const std::string label = std::string("{op=\"") + op + "\"}";
      layer.Add(std::string("relstore.") + op + "_s",
                delta("orpheus_operator_seconds_sum" + label) / ops, "s/op");
      layer.Add(std::string("relstore.") + op + "_rows",
                delta("orpheus_operator_rows" + label) / ops, "rows/op");
    }

    layer.Add("partition.optimize_ms", facts.optimize_ms, "ms");
    layer.Add("partition.lyresplit_ms", part.lyresplit_ms, "ms");
    layer.Add("partition.build_ms", part.build_ms, "ms");
    layer.Add("partition.partitions", static_cast<double>(part.partitions), "count");
    layer.Add("partition.est_checkout_records", part.est_checkout_records, "records");
    layer.Add("partition.est_storage_records", part.est_storage_records, "records");
    layer.Add("partition.checkout_ms", part.checkout_ms, "ms");
    layer.Add("partition.checkout_rows_scanned", part.checkout_rows_scanned, "rows");
    layer.Add("partition.unpartitioned_checkout_ms", part.unpartitioned_checkout_ms, "ms");
    layer.Add("partition.unpartitioned_rows_scanned", part.unpartitioned_rows_scanned, "rows");

    const double commits = static_cast<double>(std::max<size_t>(1, w.latency[kCommit].size()));
    const double groups = delta("orpheus_wal_group_size_count");
    layer.Add("storage.wal_bytes_per_commit",
              facts.durable ? delta("orpheus_wal_bytes_written_total") / commits : 0, "B");
    layer.Add("storage.wal_syncs", delta("orpheus_wal_syncs_total"), "count");
    layer.Add("storage.group_size_mean",
              groups > 0 ? delta("orpheus_wal_group_size_sum") / groups : 0, "records");
    layer.Add("storage.checkpoints", delta("orpheus_checkpoints_total"), "count");
    layer.Add("storage.checkpoint_ms_total",
              delta("orpheus_stage_seconds_sum{stage=\"checkpoint\"}") * 1e3, "ms");
    layer.Add("storage.checkpoint_bytes", delta("orpheus_checkpoint_bytes_written_total"), "B");
    layer.Add("storage.segments_written", delta("orpheus_checkpoint_segments_written_total"),
              "count");
    layer.Add("storage.segments_reused", delta("orpheus_checkpoint_segments_reused_total"),
              "count");
    for (const char* cls : {"wal", "segment", "manifest"}) {
      const std::string label = std::string("{class=\"") + cls + "\"}";
      layer.Add(std::string("storage.io_syncs.") + cls, delta("orpheus_io_syncs_total" + label),
                "count");
      layer.Add(std::string("storage.io_writes.") + cls,
                delta("orpheus_io_writes_total" + label), "count");
    }
    layer.Add("storage.open_ms", storage.open_ms, "ms");
    layer.Add("storage.replay_records", static_cast<double>(storage.replay_records), "records");

    const double untraced = w.untraced_s > 0 ? w.untraced_ops / w.untraced_s : 0;
    const double traced = w.traced_s > 0 ? w.traced_ops / w.traced_s : 0;
    layer.Add("obs.trace_overhead", traced > 0 ? untraced / traced : 0, "ratio");
  }

  // --- Spans. ---------------------------------------------------------------
  std::string spans_path;
  if (args.trace) {
    std::vector<Span> spans = std::move(w.spans);
    for (Span& s : span_log.spans()) spans.push_back(std::move(s));
    spans_path = args.out + "/spans-" + tag + ".jsonl";
    st = WriteSpans(spans_path, spans);
    if (!st.ok()) return fail("spans", st);
  }
  std::filesystem::remove_all(work, ec);

  // --- Result. --------------------------------------------------------------
  struct utsname host;
  uname(&host);
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? "true" : "false")
      << ", \"window_s\": " << JsonNumber(w.seconds)
      << ", \"correct\": " << (check.ok() ? "true" : "false")
      << ", \"error\": \"" << (check.ok() ? "" : JsonEscape(check.ToString())) << "\""
      << ", \"checked_answers\": " << facts.checked
      << ", \"attempted\": " << w.attempted << ", \"failed\": " << w.failed
      << ", \"e2e\": " << e2e.Json() << ", \"per_layer\": " << layer.Json();
  out << ", \"samples\": {";
  for (int v = 0; v < kVerbCount; ++v) {
    out << (v ? ", \"" : "\"") << VerbName(v) << "\": {\"attempted\": "
        << w.attempted_by_verb[v] << ", \"ok\": " << w.latency[v].size() << "}";
  }
  out << "}, \"failures\": {";
  bool first = true;
  for (const auto& [key, count] : w.failures) {
    out << (first ? "\"" : ", \"") << key << "\": {\"count\": " << count
        << ", \"example\": \"" << JsonEscape(w.failure_examples[key]) << "\"}";
    first = false;
  }
  out << "}, \"defect_probe\": {\"attempted\": " << facts.probe_attempted
      << ", \"failures\": {";
  first = true;
  for (const auto& [key, count] : facts.probe_failures) {
    out << (first ? "\"" : ", \"") << key << "\": {\"count\": " << count
        << ", \"example\": \"" << JsonEscape(facts.probe_examples.at(key)) << "\"}";
    first = false;
  }
  out << "}}, \"setup_reps_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) out << (i ? ", " : "") << JsonNumber(setup_s[i]);
  out << "], \"spans_file\": \"" << JsonEscape(spans_path) << "\"";
  out << ", \"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << JsonEscape(__VERSION__) << "\""
      << ", \"kernel\": \"" << JsonEscape(std::string(host.sysname) + " " + host.release)
      << "\", \"exec_threads\": " << exec_threads << ", \"sessions\": " << kSessions
      << ", \"group_commit\": " << (group_commit ? "true" : "false")
      << ", \"flush_policy\": \""
      << (facts.durable ? "fdatasync per commit group; auto-checkpoint at " +
                              std::to_string(kCurCheckpointBytes) + " WAL bytes"
                        : std::string("in-memory, no WAL"))
      << "\", \"temp_fs\": \"" << FsName(args.out) << "\""
      << ", \"dataset\": \"" << facts.dataset << "\", \"spec\": " << facts.spec_json
      << ", \"distinct_records\": " << facts.distinct_records
      << ", \"script_seed\": " << args.seed << "}}";
  std::cout << out.str() << std::endl;
  if (!check.ok()) {
    std::cerr << "perfbench: WRONG ANSWER: " << check.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload=<sci_explore|cur_commit> --seed=<n> "
                 "--seconds=<s> [--trace=0|1] [--out=<dir>]\n";
    return 2;
  }
  return perfbench::Run(args);
}
