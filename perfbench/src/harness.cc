#include "harness.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "obs/procstats.h"
#include "server/client.h"

namespace perfbench {

namespace {

Result<std::string> Scrape(orpheus::server::Client* monitor) {
  // The process gauges are sampled on a timer; refresh them so the
  // scrape reflects this instant.
  (void)orpheus::obs::ProcStatsSampler::Instance().SampleOnce();
  return monitor->Execute("metrics");
}

struct SessionState {
  std::vector<double> latency[kVerbCount];
  std::vector<double> replied_at[kVerbCount];
  int64_t attempted_by_verb[kVerbCount] = {};
  double latency_sum_s = 0;
  int64_t attempted = 0, failed = 0;
  int64_t traced_ops = 0, untraced_ops = 0;
  std::map<std::string, int64_t> failures;
  std::map<std::string, std::string> examples;
  std::vector<Span> spans;
  Status error;
};

}  // namespace

// Status::ToString is "<CodeName>: <message>".
std::string CodeOf(const Status& st) {
  std::string s = st.ToString();
  size_t colon = s.find(':');
  return colon == std::string::npos ? s : s.substr(0, colon);
}

const char* VerbName(int verb) {
  static const char* kNames[kVerbCount] = {"checkout", "run", "sql", "commit",
                                           "discard"};
  return kNames[verb];
}

double SpanLog::Since(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

void SpanLog::Add(Span span) { spans_.push_back(std::move(span)); }

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, uint64_t parent)
    : log_(log), start_(Clock::now()) {
  span_.name = std::move(name);
  span_.parent = parent;
  if (log_ != nullptr) {
    span_.id = log_->NextId();
    span_.start_s = log_->Now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_s = log_->Now();
  log_->Add(std::move(span_));
}

double ScopedSpan::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
}

Result<WindowResult> RunWindow(Workload* workload, uint16_t port,
                               const WindowOptions& options, SpanLog* spans) {
  WindowResult out;
  orpheus::server::Client monitor;
  ORPHEUS_RETURN_NOT_OK(monitor.Connect("127.0.0.1", port));
  ORPHEUS_ASSIGN_OR_RETURN(out.scrape_before, Scrape(&monitor));

  const int n = options.sessions;
  std::vector<SessionState> state(static_cast<size_t>(n));
  std::atomic<bool> traced{false};

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      SessionState& st = state[static_cast<size_t>(s)];
      orpheus::server::Client client;
      st.error = client.Connect("127.0.0.1", port);
      if (!st.error.ok()) return;
      for (int64_t loop = 0; Clock::now() < deadline; ++loop) {
        std::vector<Op> ops = workload->NextLoop(s, loop);
        std::vector<OpResult> results;
        results.reserve(ops.size());
        for (const Op& op : ops) {
          if (Clock::now() >= deadline) break;
          const bool in_traced_slice = traced.load(std::memory_order_relaxed);
          const Clock::time_point sent = Clock::now();
          Result<std::string> reply = client.Execute(op.line);
          const Clock::time_point replied = Clock::now();
          OpResult r;
          r.ok = reply.ok();
          r.code = r.ok ? "OK" : CodeOf(reply.status());
          r.text = r.ok ? reply.value() : reply.status().message();
          const double latency_s = std::chrono::duration<double>(replied - sent).count();
          ++st.attempted;
          ++st.attempted_by_verb[op.verb];
          st.latency_sum_s += latency_s;
          (in_traced_slice ? st.traced_ops : st.untraced_ops) += r.ok ? 1 : 0;
          if (r.ok) {
            st.latency[op.verb].push_back(latency_s);
            st.replied_at[op.verb].push_back(
                std::chrono::duration<double>(replied - start).count());
          } else {
            ++st.failed;
            std::string key = std::string(VerbName(op.verb)) + " " + r.code;
            if (st.failures[key]++ == 0) st.examples[key] = r.text;
          }
          if (in_traced_slice) {
            Span span;
            span.id = spans->NextId();
            span.session = s;
            span.name = VerbName(op.verb);
            span.start_s = spans->Since(sent);
            span.end_s = spans->Since(replied);
            span.ok = r.ok;
            st.spans.push_back(std::move(span));
          }
          results.push_back(std::move(r));
          if (client.closed()) {
            st.error = Status::Unavailable("server closed session " +
                                           std::to_string(s));
            return;
          }
        }
        workload->AfterLoop(s, loop, ops, results);
      }
      (void)client.Execute("exit");
    });
  }

  // Monitor: in traced runs, split the window into short slices, each
  // traced or not by a coin flip (a fixed alternation would alias with
  // periodic work such as checkpoints), and sample the engine's
  // recent-op ring during traced slices (it holds the last 256 ops).
  Status monitor_error;
  orpheus::Rng coin(0x51ce);
  while (Clock::now() < deadline) {
    const Clock::time_point slice_end = std::min(
        deadline, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         options.trace ? options.slice_s : 0.05)));
    const bool tracing = options.trace && coin.Bernoulli(0.5);
    traced.store(tracing);
    const Clock::time_point slice_start = Clock::now();
    while (Clock::now() < slice_end) {
      if (tracing && monitor_error.ok()) {
        Result<std::string> lines = monitor.Execute("traces recent 256");
        if (lines.ok()) {
          out.trace_lines.push_back(std::move(lines).value());
        } else {
          monitor_error = lines.status();
        }
      }
      std::this_thread::sleep_until(
          std::min(slice_end, Clock::now() + std::chrono::milliseconds(100)));
    }
    const double slice_s =
        std::chrono::duration<double>(Clock::now() - slice_start).count();
    (tracing ? out.traced_s : out.untraced_s) += slice_s;
  }
  traced.store(false);
  for (std::thread& t : threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  ORPHEUS_RETURN_NOT_OK(monitor_error);
  ORPHEUS_ASSIGN_OR_RETURN(out.scrape_after, Scrape(&monitor));
  (void)monitor.Execute("exit");

  for (SessionState& st : state) {
    ORPHEUS_RETURN_NOT_OK(st.error);
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.latency_sum_s += st.latency_sum_s;
    out.traced_ops += st.traced_ops;
    out.untraced_ops += st.untraced_ops;
    for (int v = 0; v < kVerbCount; ++v) {
      out.latency[v].insert(out.latency[v].end(), st.latency[v].begin(),
                            st.latency[v].end());
      out.replied_at[v].insert(out.replied_at[v].end(), st.replied_at[v].begin(),
                               st.replied_at[v].end());
      out.attempted_by_verb[v] += st.attempted_by_verb[v];
    }
    for (const auto& [key, count] : st.failures) {
      out.failures[key] += count;
      out.failure_examples.emplace(key, st.examples[key]);
    }
    for (Span& span : st.spans) out.spans.push_back(std::move(span));
  }
  return out;
}

double PromValue(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      return std::strtod(text.c_str() + pos + prefix.size(), nullptr);
    }
    pos = eol + 1;
  }
  return 0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

Result<std::vector<int64_t>> ParseSingleRow(const std::string& text) {
  size_t first_eol = text.find('\n');
  if (first_eol == std::string::npos) {
    return Status::Internal("reply has no result row: " + text);
  }
  size_t end = text.find('\n', first_eol + 1);
  std::string row = text.substr(first_eol + 1, end == std::string::npos
                                                   ? std::string::npos
                                                   : end - first_eol - 1);
  std::vector<int64_t> out;
  for (const std::string& cell : orpheus::Split(row, '|')) {
    std::string t(orpheus::Trim(cell));
    if (t == "NULL" || t == "null") {
      out.push_back(INT64_MIN);
      continue;
    }
    char* stop = nullptr;
    long long v = std::strtoll(t.c_str(), &stop, 10);
    if (t.empty() || *stop != '\0') {
      return Status::Internal("non-integer cell '" + t + "' in reply: " + text);
    }
    out.push_back(static_cast<int64_t>(v));
  }
  return out;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
