//===- perfbench/src/Bench.h - Shared benchmark state -----------*- C++ -*-===//
//
// The pieces every phase of the benchmark shares: the span recorder, the
// metric report, the run configuration and small statistics helpers.
//
// Spans are the benchmark's own: each phase opens one around every call
// it makes into a layer's public function (quil::lower, jit::
// CompiledModule::compile, shard::ShardRouter::execute, ...). Nothing in
// the program under test is instrumented or reconfigured.
//
//===----------------------------------------------------------------------===//

#ifndef STENO_PERFBENCH_BENCH_H
#define STENO_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace steno {
class QueryResult;
namespace fuzz {
struct QuerySpec;
} // namespace fuzz
} // namespace steno

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0);

/// The three phases, and the workload names: every run executes all three
/// phases, so every end-to-end metric is measured on every workload; the
/// phase the workload names gets the larger share of the measured window.
enum class Phase { Scan, Compile, Serve };

struct Config {
  Phase Workload = Phase::Scan;
  std::uint64_t Seed = 1;
  double Seconds = 30;
  bool Trace = false;
  std::string ServeBin;  ///< steno_serve binary for the shard workers.
  std::string TracePath; ///< Where the spans are written at exit.

  /// Measured seconds for \p P: the workload's own phase gets half the
  /// window, the two others a quarter each.
  double phaseSeconds(Phase P) const {
    return Seconds * (P == Workload ? 0.5 : 0.25);
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded span: name, start and end (ns since the recorder was
/// created), the span that was open on the same thread when it began
/// (0 = root), and the request it belongs to (0 = none).
struct SpanRecord {
  std::string Name;
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0;
  std::uint64_t Request = 0;
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  double micros() const { return double(EndNs - StartNs) / 1e3; }
};

/// Keeps every span in memory; writeJson() emits them at exit together
/// with each span name's self time (duration minus the part of it that
/// child spans cover). Disabled recorders make Span a no-op.
class Tracer {
public:
  static Tracer &get();

  bool enabled() const { return On.load(std::memory_order_relaxed); }
  void setEnabled(bool E) { On.store(E, std::memory_order_relaxed); }

  std::int64_t nowNs() const;
  std::uint64_t newId() { return NextId.fetch_add(1); }
  void record(SpanRecord R);

  /// Durations in µs of every span called \p Name.
  std::vector<double> durations(const std::string &Name) const;
  /// Self time in µs summed per span name.
  std::map<std::string, double> selfMicros() const;
  bool writeJson(const std::string &Path, std::string *Err) const;

private:
  Tracer();
  std::atomic<bool> On{false};
  std::atomic<std::uint64_t> NextId{1};
  Clock::time_point Epoch;
  mutable std::mutex M; ///< Guards Spans.
  std::vector<SpanRecord> Spans;
};

/// RAII span around one call into a layer. Nests per thread.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active = false;
  SpanRecord R;
  std::uint64_t SavedParent = 0;
};

/// Sets the request id that spans opened on this thread carry.
class RequestScope {
public:
  explicit RequestScope(std::uint64_t Id);
  ~RequestScope();
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  std::uint64_t Saved;
};

/// A fresh request id.
std::uint64_t nextRequestId();

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything one run reports. End-to-end metrics are measured with the
/// recorder off; per-layer metrics come from the traced steps.
struct Report {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;
  /// Informational lines (sample counts, bases) printed before the result.
  std::vector<std::string> Notes;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> FirstFailures; ///< First few, for the log.

  void e2e(const std::string &Name, double V, const char *Unit) {
    EndToEnd[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    PerLayer[Name] = {V, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  void fail(const std::string &What);
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile of \p V (0 <= P <= 1); 0 for an empty input.
double percentile(std::vector<double> V, double P);
double median(const std::vector<double> &V);

/// The loadgen's paper-shaped query mix as specs: Sum, Scale, filtered
/// Count, Ret-pop's flatten, Group, Sort and a non-associative fold. The
/// shapes are fixed; their source data is drawn from \p Seed.
std::vector<steno::fuzz::QuerySpec> paperMix(std::uint64_t Seed);

/// Three generated specs, the same on every seed, data included.
std::vector<steno::fuzz::QuerySpec> generatedSpecs();

/// Same shape, same row count, and every row within fuzz::fuzzValueNear
/// of the reference (reassociated floating-point sums differ in the last
/// bits).
bool resultsNear(const steno::QueryResult &Got, const steno::QueryResult &Want);

/// Median µs of the recorded spans called \p Name (0 when none).
double spanMedianMicros(const char *Name);

/// getrusage ru_maxrss in MB for RUSAGE_SELF or RUSAGE_CHILDREN.
double maxRssMb(bool Children);

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

/// One phase's measurement in one mode (recorder off or on). main()
/// interleaves the phases: it repeatedly steps the phase furthest below its
/// share of the window, so every phase samples the whole window and slow
/// drift of the machine lands on all of them alike.
class Measure {
public:
  virtual ~Measure() = default;
  /// One unit of work: a compile, a scan repetition or a serve slice.
  virtual void step() = 0;
  /// Whether the minimum work is done: six scan repetitions, eight serve
  /// slices, or every shape of the compile list.
  virtual bool enough() const = 0;
  /// Adds this measurement's metrics to the report.
  virtual void finish() = 0;
};

class ScanPhase;
class ServePhase;
struct PhaseDeleter {
  void operator()(ScanPhase *S) const;
  /// Stops and reaps the workers. Safe on a partly started phase.
  void operator()(ServePhase *S) const;
};
using ScanHandle = std::unique_ptr<ScanPhase, PhaseDeleter>;
using ServeHandle = std::unique_ptr<ServePhase, PhaseDeleter>;

/// Scan: builds the large inputs and compiles the five shapes (setup).
ScanHandle setupScan(const Config &C, Report &R);
std::unique_ptr<Measure> scanMeasure(ScanPhase &S, Report &R, bool Traced);

/// Compile: cold compileQuery over the seed's fixed list of shapes, each
/// run once and checked against steno::runReference. \p Pipeline makes
/// the explicit layer calls of compileQuery instead, as a traced run does.
std::unique_ptr<Measure> compileMeasure(const Config &C, Report &R,
                                        bool Traced, bool Pipeline);
/// Front-end and artifact counts over the seed's list of shapes;
/// identical for identical seeds.
void compileCensus(const Config &C, Report &R);

/// Serve: spawns two steno_serve workers behind a ShardRouter and warms
/// every plan to native (setup).
ServeHandle startServe(const Config &C, Report &R);
bool finishServeSetup(ServePhase &S, Report &R);
std::unique_ptr<Measure> serveMeasure(ServePhase &S, Report &R, bool Traced);

} // namespace perfbench

#endif // STENO_PERFBENCH_BENCH_H
