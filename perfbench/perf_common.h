#ifndef PERFBENCH_PERF_COMMON_H_
#define PERFBENCH_PERF_COMMON_H_

// Shared pieces of the benchmark drivers (README.md): flag parsing, the
// op-script reader, percentiles with their class placement, the span
// recorder of the traced run, and the result line run.py consumes.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "query/query.h"
#include "query/sample_engine.h"
#include "util/random.h"
#include "util/status.h"

namespace perf {

[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// `--name=value` flags; every flag in `known` is required, any other
/// flag is an error.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<const char*> known) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad argument '" + arg + "' (want --name=value)");
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
    for (const auto& [name, value] : values_) {
      bool found = false;
      for (const char* k : known) found = found || name == k;
      if (!found) Die("unknown flag '--" + name + "'");
    }
    for (const char* k : known) {
      if (values_.count(k) == 0) Die(std::string("missing --") + k);
    }
  }
  const std::string& Get(const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The flags every workload driver takes.
struct DriverArgs {
  std::string inputs;  ///< Directory perf_gen wrote.
  std::string spans;   ///< Span file written at exit (traced run only).
  double seconds = 10;
  bool trace = false;
};

inline DriverArgs ParseDriverArgs(int argc, char** argv) {
  const Flags flags(argc, argv, {"inputs", "seconds", "trace", "spans"});
  DriverArgs args;
  args.inputs = flags.Get("inputs");
  args.spans = flags.Get("spans");
  args.seconds = std::atof(flags.Get("seconds").c_str());
  args.trace = flags.Get("trace") == "1";
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

template <typename T>
T Must(ugs::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

inline void Must(const ugs::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

inline std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Parses the request fields perf_gen writes
/// (`<query> <samples> <seed> <pagerank iterations> <npairs> u v ...`)
/// from `in`.
inline ugs::QueryRequest ParseRequest(std::istringstream& in) {
  ugs::QueryRequest request;
  std::size_t num_pairs = 0;
  in >> request.query >> request.num_samples >> request.seed >>
      request.pagerank.max_iterations >> num_pairs;
  request.pairs.resize(num_pairs);
  for (ugs::VertexPair& pair : request.pairs) in >> pair.s >> pair.t;
  if (!in) Die("malformed request line");
  return request;
}

/// Pins the calling thread -- and so every thread it creates afterwards
/// -- to one CPU: the highest one this process may use. With one
/// closed-loop client the system never has two busy threads at once, and
/// on a shared virtual machine cross-CPU wake-ups were the largest
/// source of spread on the serving workloads (routed cache hits reached
/// 20 ms unpinned, 0.3 ms pinned). Returns the CPU.
inline int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) Die("sched_getaffinity");
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) Die("sched_setaffinity");
  return cpu;
}

/// Peak resident set of this process, in MB: VmHWM of its own address
/// space. (getrusage's ru_maxrss would also count the parent's memory,
/// which survives into the child across fork and exec.)
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  Die("no VmHWM in /proc/self/status");
}

/// Latency samples tagged with the op class they belong to, so each
/// reported percentile can say which class it falls in. Class names are
/// string literals.
class Latencies {
 public:
  void Add(double ms, const char* op_class) { samples_.push_back({ms, op_class}); }

  /// Nearest-rank percentile q in (0, 1].
  double At(double q) const { return Sorted()[Rank(q)].first; }

  /// "p90 = 12.345 ms  class=miss  n=400  beyond=40".
  std::string Placement(const char* label, double q) const {
    const auto sorted = Sorted();
    const std::size_t rank = Rank(q);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s = %.4f ms  class=%s  n=%zu  beyond=%zu", label,
                  sorted[rank].first, sorted[rank].second,
                  sorted.size(), sorted.size() - 1 - rank);
    return line;
  }

  /// One line per class: its count, p50, p90 and maximum.
  std::string ClassSummary() const {
    std::map<std::string, std::vector<double>> by_class;
    for (const auto& [ms, op_class] : Sorted()) by_class[op_class].push_back(ms);
    std::string out;
    for (const auto& [op_class, values] : by_class) {
      const std::size_t n = values.size();
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  class %-8s n=%-7zu p50=%.4f p90=%.4f max=%.4f ms\n",
                    op_class.c_str(), n, values[(n - 1) / 2],
                    values[(n * 9 + 9) / 10 - 1], values.back());
      out += line;
    }
    return out;
  }

 private:
  std::size_t Rank(double q) const {
    const auto n = static_cast<double>(samples_.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return rank == 0 ? 0 : rank - 1;
  }
  std::vector<std::pair<double, const char*>> Sorted() const {
    auto sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::vector<std::pair<double, const char*>> samples_;
};

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// "label: v1 v2 ..." with three decimals.
inline std::string Samples(const std::string& label,
                           const std::vector<double>& values) {
  std::string out = label + ":";
  for (double value : values) {
    char item[32];
    std::snprintf(item, sizeof(item), " %.3f", value);
    out += item;
  }
  return out;
}

/// Op counts per class, printed as shares of all ops.
class ClassShares {
 public:
  void Count(const std::string& op_class) { ++counts_[op_class]; }
  void Print() const {
    std::uint64_t total = 0;
    for (const auto& [name, count] : counts_) total += count;
    for (const auto& [name, count] : counts_) {
      std::printf("class %-14s ops=%-8llu share=%.4f\n", name.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<double>(count) / static_cast<double>(total));
    }
  }

 private:
  std::map<std::string, std::uint64_t> counts_;
};

/// In-memory span recorder of the traced run: each span has a name, a
/// start and end, its parent span and the op it belongs to. Spans are
/// written out only when the run ends. A span's self time is its
/// duration minus the part of it its children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::int64_t op = -1;
  };

  /// Opens a span; returns its id.
  std::int64_t Begin(std::string name, std::int64_t parent, std::int64_t op) {
    spans_.push_back({std::move(name), Clock::now(), {}, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Closes span `id`; returns its duration in ms.
  double End(std::int64_t id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = Clock::now();
    return MsBetween(span.start, span.end);
  }

  /// Runs `fn` inside a span; returns the span's duration in ms.
  template <typename Fn>
  double Time(std::string name, std::int64_t parent, std::int64_t op, Fn&& fn) {
    const std::int64_t id = Begin(std::move(name), parent, op);
    fn();
    return End(id);
  }

  /// Total self time in ms per span name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      // Children of one span never overlap (the drivers are
      // single-threaded), so their covered time is a plain sum, clipped
      // to the parent's interval.
      double covered = 0.0;
      for (std::size_t c : children[i]) {
        const auto start = std::max(spans_[c].start, spans_[i].start);
        const auto end = std::min(spans_[c].end, spans_[i].end);
        if (end > start) covered += MsBetween(start, end);
      }
      totals[spans_[i].name] += MsBetween(spans_[i].start, spans_[i].end) - covered;
    }
    return totals;
  }

  /// Writes one JSON object per span (times in ms from the first span).
  void Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) Die("cannot write " + path);
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"parent\":%lld,\"op\":%lld}\n",
                   i, span.name.c_str(), MsBetween(origin, span.start),
                   MsBetween(origin, span.end),
                   static_cast<long long>(span.parent),
                   static_cast<long long>(span.op));
    }
    std::fclose(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Times world sampling alone: SampleEngine::Run with a no-op evaluator,
/// on an engine configured like the one that produced `result`.
class SampleReplay {
 public:
  explicit SampleReplay(const ugs::SampleEngineOptions& options)
      : plain_(options), skip_(WithSkip(options)) {}

  void Run(const ugs::UncertainGraph& graph, const ugs::QueryRequest& request,
           const ugs::QueryResult& result) const {
    const ugs::SampleEngine& engine =
        result.estimator == ugs::Estimator::kSkipSampler ? skip_ : plain_;
    ugs::Rng rng(request.seed);
    engine.Run(graph, result.samples.num_units, request.num_samples, &rng,
               false, [] { return [](std::vector<char>&, double*, char*) {}; });
  }

 private:
  static ugs::SampleEngineOptions WithSkip(ugs::SampleEngineOptions options) {
    options.use_skip_sampler = true;
    return options;
  }

  ugs::SampleEngine plain_;
  ugs::SampleEngine skip_;
};

/// The metrics of one run, printed by name with their unit, then the
/// final result line run.py relays. The result line must hold every
/// metric of BENCHMARK.json's list for the mode -- end-to-end untraced,
/// per-layer traced -- on every workload; run.py checks that.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
    std::printf("metric %-40s %.6f %s\n", name.c_str(), value, unit.c_str());
  }

  /// Prints a metric only one workload has, without putting it in the
  /// result line.
  void Note(const std::string& name, double value, const std::string& unit) const {
    std::printf("metric %-40s %.6f %s (this workload only; not in the result)\n",
                name.c_str(), value, unit.c_str());
  }

  /// Reports 0 for each (name, unit) of a per-layer metric whose layer
  /// the workload's op never enters.
  void NotEntered(std::initializer_list<std::pair<const char*, const char*>> metrics) {
    for (const auto& [name, unit] : metrics) Add(name, 0.0, unit);
  }

  /// Prints the result line and returns the process exit code: 0 only
  /// when every op was attempted and checked correct.
  int Finish(std::uint64_t attempted, std::uint64_t failed) const {
    const bool correct = failed == 0 && attempted > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
      line += (i == 0 ? "\"" : ", \"") + metrics_[i].first +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].second.second + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace perf

#endif  // PERFBENCH_PERF_COMMON_H_
