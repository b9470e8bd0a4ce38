// perfbench harness: closed-loop sessions over real loopback TCP
// against one in-process OrpheusDB server, plus the bookkeeping every
// workload shares (latency samples, failure classes, spans, scrapes).
//
// A workload supplies the dataset load (through the engine's own
// verbs), a per-session op script that never branches on a reply, and
// the correctness check. The harness runs N sessions, each on its own
// connection and client thread, for a fixed window.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_api.h"

namespace perfbench {

using orpheus::Result;
using orpheus::Status;
using Clock = std::chrono::steady_clock;

// The verbs whose latencies the benchmark reports.
enum Verb { kCheckout = 0, kRun, kSql, kCommit, kDiscard, kVerbCount };
const char* VerbName(int verb);
// Status code name of a failed reply ("NotFound", ...).
std::string CodeOf(const Status& st);

struct Op {
  Verb verb;
  std::string line;
};

struct OpResult {
  bool ok = false;
  std::string code;  // status code name ("OK", "NotFound", ...)
  std::string text;  // reply text, or the error message
};

// One timed interval: a client op (parent 0) or a direct layer call
// made by the benchmark itself (parent = the enclosing span, if any).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int session = -1;  // -1 for direct layer calls
  std::string name;  // verb, or "<layer>.<function>"
  double start_s = 0;  // seconds since the run's epoch
  double end_s = 0;
  bool ok = true;
};

// Run-wide span clock and id source. Direct layer calls Add() their
// spans here (from one thread); client op spans are kept per session
// and merged at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  double Since(Clock::time_point t) const;
  double Now() const { return Since(Clock::now()); }
  uint64_t NextId() { return next_id_.fetch_add(1); }  // thread-safe
  void Add(Span span);
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::vector<Span> spans_;
};

// Times one direct call into a layer; records a span when a log is set.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t parent = 0);
  ~ScopedSpan();
  uint64_t id() const { return span_.id; }  // 0 without a log
  double ElapsedMs() const;

 private:
  SpanLog* log_;
  Span span_;
  Clock::time_point start_;
};

// Layer facts a workload learns while it runs (traced runs report
// them; zero where a layer is not used).
struct WorkloadFacts {
  std::string cvd;               // the CVD the workload loads
  int preloaded_versions = 0;
  double optimize_ms = 0;        // the `optimize` verb during setup
  bool partitioned = false;
  bool durable = false;
  std::string dataset;           // e.g. "SCI_135K"
  std::string spec_json;         // the DatasetSpec, as JSON
  int64_t distinct_records = 0;  // |R| of the generated dataset
  int num_attrs = 0;
  int64_t checked = 0;           // answers verified by Check()
  // The post-window probe for the known post-`optimize` defect (see
  // SciExplore): ops sent, and "<verb> <StatusCode>" -> count with one
  // example message. Not part of the measured window's ops.
  int64_t probe_attempted = 0;
  std::map<std::string, int64_t> probe_failures;
  std::map<std::string, std::string> probe_examples;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const WorkloadFacts& facts() const = 0;
  // Generates the dataset and loads it into `api`'s engine through the
  // engine's own verbs. Timed as part of setup_s.
  virtual Status Load(orpheus::core::EngineApi* api, const std::string& dir) = 0;
  // Untimed preparation after the final setup: precomputes expected
  // answers and per-session starting state.
  virtual Status Prepare(int sessions) = 0;
  // The ops of loop `loop` of session `s`. Depends only on the seed,
  // the loop counter and the versions earlier commits created.
  virtual std::vector<Op> NextLoop(int s, int64_t loop) = 0;
  // Records a finished loop's replies for the check.
  virtual void AfterLoop(int s, int64_t loop, const std::vector<Op>& ops,
                         const std::vector<OpResult>& results) = 0;
  // Verifies every recorded answer once the window has ended and the
  // server has stopped; durable workloads get the reopened engine. A
  // wrong answer or a lost acknowledged commit is an error.
  virtual Status Check(orpheus::core::EngineApi* api) = 0;
};

// Aggregated outcome of one measured window.
struct WindowResult {
  double seconds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Client-observed latencies of successful ops, seconds, per verb,
  // and when each reply arrived (seconds since the window opened).
  std::vector<double> latency[kVerbCount];
  std::vector<double> replied_at[kVerbCount];
  int64_t attempted_by_verb[kVerbCount] = {};
  double latency_sum_s = 0;  // client-observed, every attempted op
  // "<verb> <StatusCode>" -> count, and one example message each.
  std::map<std::string, int64_t> failures;
  std::map<std::string, std::string> failure_examples;
  // Traced runs only: ops/seconds inside traced vs untraced slices.
  int64_t traced_ops = 0, untraced_ops = 0;
  double traced_s = 0, untraced_s = 0;
  std::vector<Span> spans;
  // `traces recent` JSON lines collected during traced slices.
  std::vector<std::string> trace_lines;
  std::string scrape_before, scrape_after;
};

struct WindowOptions {
  int sessions = 4;
  double seconds = 10;
  bool trace = false;
  double slice_s = 0.25;  // length of one traced or untraced slice
};

// Runs the closed loop against `server` for the window. Scrapes the
// `metrics` verb before and after over a separate connection. Traced
// op spans take their ids and times from `spans`.
Result<WindowResult> RunWindow(Workload* workload, uint16_t port,
                               const WindowOptions& options, SpanLog* spans);

// --- Helpers ---------------------------------------------------------------

// Value of the exposition line starting "<series> "; 0 when absent.
double PromValue(const std::string& text, const std::string& series);
// Percentile (0..100) by nearest rank over an unsorted sample.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);
std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);
// "a | b | c" second line of a rendered result chunk, as integers
// (NULL reads as INT64_MIN).
Result<std::vector<int64_t>> ParseSingleRow(const std::string& text);
// Deterministic 64-bit mix (seeded script derivation).
uint64_t Mix64(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
