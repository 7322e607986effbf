//===- perfbench/src/Main.cpp - Steno end-to-end benchmark ---------------===//
//
//   steno_perfbench --workload scan|compile|serve --seed N --seconds S
//                   --trace 0|1 --serve-bin PATH [--trace-out PATH]
//
// Sets up all three phases (scan inputs and compiled shapes; serve
// workers warmed to native), then measures compile, scan and serve
// interleaved. The named workload's phase gets half the window, the
// others a quarter each, so every end-to-end metric is measured on every
// workload. A phase runs past its share until its minimum work is done;
// for compile that is every shape of its list.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every step
// twice, recorder off and on in turns, and prints the per-layer metrics
// from the traced steps plus the traced/plain ratio of each end-to-end
// metric. The last stdout line is one JSON object: correct, attempted,
// failed and metrics. Exit status 1 on any failed or mismatched
// operation, 2 on usage or set-up errors.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

bool parseArgs(int Argc, char **Argv, Config &C) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (A == "--workload") {
      HaveWorkload = true;
      if (V == "scan")
        C.Workload = Phase::Scan;
      else if (V == "compile")
        C.Workload = Phase::Compile;
      else if (V == "serve")
        C.Workload = Phase::Serve;
      else
        return false;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace") {
      C.Trace = V == "1";
    } else if (A == "--serve-bin") {
      C.ServeBin = V;
    } else if (A == "--trace-out") {
      C.TracePath = V;
    } else {
      return false;
    }
  }
  return HaveWorkload && C.Seconds > 0 && !C.ServeBin.empty();
}

void printMetrics(const char *Kind, const std::map<std::string, Metric> &M) {
  for (const auto &[Name, Mt] : M)
    std::printf("%s %-40s %16.6f %s\n", Kind, Name.c_str(), Mt.Value,
                Mt.Unit.c_str());
}

void printResult(const Report &R, const std::map<std::string, Metric> &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed ? "false" : "true", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed);
  bool First = true;
  for (const auto &[Name, Mt] : M) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), Mt.Value, Mt.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

/// The window metrics that tracing can change (set-up and memory are not
/// traced).
const char *const TracedMetrics[] = {
    "scan_ns_per_elem.sumsq", "scan_ns_per_elem.filtered",
    "scan_ns_per_elem.cart",  "scan_ns_per_elem.group",
    "scan_ns_per_elem.par",   "compile_ms.p50",
    "compile_ms.p75",         "serve_rps",
    "serve_latency_us.p50",   "serve_latency_us.p99"};

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  if (!parseArgs(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: steno_perfbench --workload scan|compile|serve "
                 "--seed N --seconds S --trace 0|1 --serve-bin PATH "
                 "[--trace-out PATH]\n");
    return 2;
  }

  Report Plain, Traced;
  Clock::time_point T0 = Clock::now();
  // The workers compile in their own processes while this one builds the
  // scan inputs and compiles the scan shapes.
  ServeHandle Serve = startServe(C, Plain);
  ScanHandle Scan = setupScan(C, Plain);
  bool ServeUp = finishServeSetup(*Serve, Plain);
  double SetupS = secondsSince(T0);
  if (!ServeUp || Plain.Failed) {
    for (const std::string &M : Plain.FirstFailures)
      std::fprintf(stderr, "steno_perfbench: %s\n", M.c_str());
    return 2;
  }

  // A traced run steps each phase twice, recorder off and on in turns,
  // through the same code: trace_overhead.* compares like with like.
  struct Modes {
    std::unique_ptr<Measure> Off, On;
    unsigned Steps = 0;
    bool enough() const { return Off->enough() && (!On || On->enough()); }
    void step() {
      bool OnFirst = On && Steps++ % 2;
      for (Measure *M : {OnFirst ? On.get() : Off.get(),
                         OnFirst ? Off.get() : On.get()}) {
        if (!M)
          continue;
        Tracer::get().setEnabled(M == On.get());
        M->step();
      }
      Tracer::get().setEnabled(false);
    }
  };
  Modes M[3];
  M[0].Off = scanMeasure(*Scan, Plain, false);
  M[1].Off = compileMeasure(C, Plain, false, /*Pipeline=*/C.Trace);
  M[2].Off = serveMeasure(*Serve, Plain, false);
  if (C.Trace) {
    M[0].On = scanMeasure(*Scan, Traced, true);
    M[1].On = compileMeasure(C, Traced, true, /*Pipeline=*/true);
    M[2].On = serveMeasure(*Serve, Traced, true);
  }
  // Step the phase furthest below its share of the window until every
  // phase has its share and its minimum work.
  const Phase Order[3] = {Phase::Scan, Phase::Compile, Phase::Serve};
  double Spent[3] = {0, 0, 0};
  for (;;) {
    int Pick = -1;
    double Lowest = 0;
    for (int P = 0; P != 3; ++P) {
      double Share = C.phaseSeconds(Order[P]);
      if (Spent[P] >= Share && M[P].enough())
        continue;
      double Progress = Spent[P] / Share;
      if (Pick < 0 || Progress < Lowest) {
        Pick = P;
        Lowest = Progress;
      }
    }
    if (Pick < 0)
      break;
    Clock::time_point T1 = Clock::now();
    M[Pick].step();
    Spent[Pick] += secondsSince(T1);
  }
  for (Modes &P : M) {
    P.Off->finish();
    if (P.On) {
      Tracer::get().setEnabled(true); // the traced finish adds spans too
      P.On->finish();
      Tracer::get().setEnabled(false);
    }
  }
  if (C.Trace)
    compileCensus(C, Traced);

  Serve.reset(); // reaps the workers before the memory reading
  Scan.reset();

  Plain.e2e("setup_s", SetupS, "s");
  Plain.e2e("peak_rss_mb",
            std::max(maxRssMb(/*Children=*/false), maxRssMb(/*Children=*/true)),
            "MB");
  Report &Out = C.Trace ? Traced : Plain;
  if (C.Trace) {
    Traced.Attempted += Plain.Attempted;
    Traced.Failed += Plain.Failed;
    Traced.FirstFailures.insert(Traced.FirstFailures.end(),
                                Plain.FirstFailures.begin(),
                                Plain.FirstFailures.end());
    Traced.PerLayer.insert(Plain.PerLayer.begin(), Plain.PerLayer.end());
    for (const char *Name : TracedMetrics)
      Traced.layer(std::string("trace_overhead.") + Name,
                   Traced.EndToEnd[Name].Value / Plain.EndToEnd[Name].Value,
                   "ratio");
  }

  double ErrorShare =
      Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 0;
  for (const std::string &N : Plain.Notes)
    std::printf("# %s\n", N.c_str());
  for (const std::string &N : Traced.Notes)
    std::printf("# traced %s\n", N.c_str());
  for (const std::string &M : Out.FirstFailures)
    std::printf("# FAILED %s\n", M.c_str());
  printMetrics("end_to_end", Plain.EndToEnd);
  std::printf("end_to_end %-40s %16.6f %s\n", "error_share", ErrorShare,
              "ratio");
  if (C.Trace)
    printMetrics("per_layer", Traced.PerLayer);

  if (C.Trace && !C.TracePath.empty()) {
    std::string Err;
    if (!Tracer::get().writeJson(C.TracePath, &Err))
      std::fprintf(stderr, "steno_perfbench: %s\n", Err.c_str());
  }
  printResult(Out, C.Trace ? Traced.PerLayer : Plain.EndToEnd);
  std::fflush(stdout);
  return Out.Failed ? 1 : 0;
}
