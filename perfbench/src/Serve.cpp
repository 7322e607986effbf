//===- perfbench/src/Serve.cpp - Routed serving over two worker processes ===//
//
// Four closed-loop client threads drive an in-process shard::ShardRouter
// (default RouterOptions) fronting two spawned steno_serve workers. The
// workers run with default flags except two background compile threads
// each (nproc / shards), which shortens warm-up and leaves the timed
// window unchanged: every plan is native by then. The mix is the
// loadgen's paper-shaped mix, over in-cache sources of 256-4096 elements
// drawn from the seed, plus the first two stored generated specs (fixed
// data, under 64 elements). The shapes, and so which specs split across
// the shards, are the same on every seed.
//
// Set-up ends only when every plan is native: the whole-query plans and
// the per-connection vertex plans of the router's pool, and the plans the
// direct WireClient connections use. Warm-up drives the router with twice
// as many threads as the measured loop, so every pooled connection has
// prepared every spec before timing starts.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Diff.h"
#include "serve/Serve.h"
#include "serve/Wire.h"
#include "shard/Shard.h"
#include "shard/Spawn.h"
#include "steno/RefExec.h"

#include <csignal>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace steno;

namespace {

constexpr unsigned Shards = 2;
constexpr unsigned Clients = 4;
constexpr unsigned WarmupClients = 8;
constexpr unsigned GeneratedSpecs = 2;
constexpr std::chrono::milliseconds Deadline{5000};
constexpr double WarmupLimitSeconds = 120;

/// Compares a row rendered by the worker (fuzzValueStr) with the expected
/// value: every number within fuzzValueNear's relative tolerance, every
/// other character equal.
bool renderedNear(const std::string &Got, const expr::Value &Want) {
  std::string Exp = fuzz::fuzzValueStr(Want);
  const char *A = Got.c_str(), *B = Exp.c_str();
  while (*A && *B) {
    char *EA = nullptr, *EB = nullptr;
    double VA = std::strtod(A, &EA), VB = std::strtod(B, &EB);
    bool NumA = EA != A, NumB = EB != B;
    if (NumA != NumB)
      return false;
    if (NumA) {
      if (!fuzz::fuzzValueNear(expr::Value(VA), expr::Value(VB)))
        return false;
      A = EA;
      B = EB;
      continue;
    }
    if (*A++ != *B++)
      return false;
  }
  return *A == *B;
}

struct MixEntry {
  std::string Text;
  shard::RoutedHandle Handle;
  std::shared_ptr<fuzz::BuiltQuery> Built; // Expected may borrow its buffers.
  QueryResult Expected;
  std::uint64_t Direct[Shards] = {}; ///< Handles on the direct connections.
};

/// A direct connection to one worker, closed on destruction.
struct DirectConn {
  int Fd = -1;
  std::unique_ptr<serve::WireClient> Client;
  DirectConn() = default;
  DirectConn(const DirectConn &) = delete;
  DirectConn &operator=(const DirectConn &) = delete;
  ~DirectConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

} // namespace

namespace perfbench {

class ServePhase {
public:
  std::vector<shard::WorkerProcess> Workers;
  std::unique_ptr<shard::ShardRouter> Router;
  std::vector<MixEntry> Mix;
  DirectConn Direct[Shards];
  Clock::time_point Start;
  std::vector<std::thread> Warmers;
  std::atomic<bool> StopWarmup{false};
  std::atomic<std::uint64_t> Served{0};
  /// Served-count stamp of the newest non-native (or failed) warm-up
  /// response; warm-up ends after a long enough all-native run.
  std::atomic<std::uint64_t> LastCold{0};

  ServePhase() = default;
  ServePhase(const ServePhase &) = delete;
  ServePhase &operator=(const ServePhase &) = delete;
  ~ServePhase() {
    StopWarmup.store(true);
    for (std::thread &T : Warmers)
      if (T.joinable())
        T.join();
    Router.reset();
    for (DirectConn &D : Direct) {
      if (D.Client)
        D.Client->quit();
      D.Client.reset();
    }
    for (shard::WorkerProcess &W : Workers)
      W.kill9();
  }
};

} // namespace perfbench

void perfbench::PhaseDeleter::operator()(ServePhase *S) const { delete S; }

ServeHandle perfbench::startServe(const Config &C, Report &R) {
  // A worker that dies mid-write must surface as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  ServeHandle S(new ServePhase);
  S->Start = Clock::now();

  shard::RouterOptions Opts;
  for (unsigned I = 0; I != Shards; ++I) {
    // Relative to the run directory: short, and private to this run.
    std::string Sock = "shard" + std::to_string(I) + ".sock";
    S->Workers.emplace_back(C.ServeBin, Sock,
                            std::vector<std::string>{"--compile-workers", "2"});
    std::string Err;
    if (!S->Workers.back().start(&Err)) {
      R.fail("serve: " + Err);
      return S;
    }
    Opts.ShardSockets.push_back(Sock);
  }
  S->Router = std::make_unique<shard::ShardRouter>(Opts);

  std::vector<fuzz::QuerySpec> Specs = paperMix(C.Seed);
  std::vector<fuzz::QuerySpec> Generated = generatedSpecs();
  Specs.insert(Specs.end(), Generated.begin(),
               Generated.begin() + GeneratedSpecs);

  for (unsigned I = 0; I != Shards; ++I) {
    DirectConn &D = S->Direct[I];
    D.Fd = shard::WorkerProcess::connectTo(Opts.ShardSockets[I],
                                           std::chrono::milliseconds(5000));
    if (D.Fd < 0) {
      R.fail("serve: cannot connect to shard " + std::to_string(I));
      return S;
    }
    D.Client = std::make_unique<serve::WireClient>(D.Fd);
  }

  for (const fuzz::QuerySpec &Spec : Specs) {
    MixEntry E;
    E.Text = fuzz::serializeSpec(Spec);
    std::string Err;
    E.Handle = S->Router->prepare(E.Text, &Err);
    E.Built = std::make_shared<fuzz::BuiltQuery>();
    if (!E.Handle || !fuzz::buildSpec(Spec, *E.Built, &Err)) {
      R.fail("serve: prepare failed: " + Err);
      return S;
    }
    E.Expected = runReference(E.Built->Q, E.Built->B);
    for (unsigned I = 0; I != Shards; ++I)
      if (!S->Direct[I].Client->prepare(E.Text, E.Direct[I], Err)) {
        R.fail("serve: direct prepare failed: " + Err);
        return S;
      }
    S->Mix.push_back(std::move(E));
  }

  // Warm-up traffic: spaced out, so the workers' background compiles are
  // not starved by interpreted requests.
  for (unsigned T = 0; T != WarmupClients; ++T)
    S->Warmers.emplace_back([P = S.get(), T] {
      std::size_t Cursor = T;
      while (!P->StopWarmup.load()) {
        const MixEntry &E = P->Mix[Cursor++ % P->Mix.size()];
        serve::Response Rsp = P->Router->execute(E.Handle, Deadline);
        std::uint64_t N = P->Served.fetch_add(1) + 1;
        if (Rsp.St != serve::Status::Ok || !Rsp.NativePlan) {
          std::uint64_t Seen = P->LastCold.load();
          while (Seen < N && !P->LastCold.compare_exchange_weak(Seen, N)) {
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  return S;
}

bool perfbench::finishServeSetup(ServePhase &S, Report &R) {
  if (S.Router == nullptr || S.Mix.empty())
    return false;
  // Every (connection, spec) pair must have answered natively: the pool
  // is full and a long run of responses (many times the mix per warm-up
  // client) was all native, and every direct plan reports native.
  const std::uint64_t Window = 6ull * WarmupClients * S.Mix.size();
  const unsigned PoolSize = Shards * S.Router->options().ConnsPerShard;
  bool DirectNative = false;
  bool Ready = false;
  while (!Ready && secondsSince(S.Start) < WarmupLimitSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!DirectNative) {
      DirectNative = true;
      for (MixEntry &E : S.Mix)
        for (unsigned I = 0; I != Shards; ++I) {
          serve::WireClient::ExecResult Out;
          if (!S.Direct[I].Client->exec(E.Direct[I], Deadline.count(), Out) ||
              !Out.Native)
            DirectNative = false;
        }
    }
    Ready = DirectNative && S.Router->stats().Connects >= PoolSize &&
            S.Served.load() >= S.LastCold.load() + Window;
  }
  S.StopWarmup.store(true);
  for (std::thread &T : S.Warmers)
    T.join();
  S.Warmers.clear();
  R.layer("serve.to_native_s", secondsSince(S.Start), "s");
  if (!Ready)
    R.note("serve: warm-up limit reached before every plan was native");
  return true;
}

namespace {

/// Seconds of closed-loop traffic per step.
constexpr double SliceSeconds = 0.25;

/// Routed serving in one mode, recorder off or on. A step is one slice of
/// the closed loop: Clients threads, each sending its next request when
/// the previous one is answered.
class ServeMeasure : public Measure {
public:
  ServeMeasure(ServePhase &S, Report &R, bool Traced)
      : S(S), R(R), Traced(Traced), Before(S.Router->stats()) {}
  void step() override;
  bool enough() const override { return Slices >= 8; }
  void finish() override;

private:
  void extras(double Budget);

  ServePhase &S;
  Report &R;
  bool Traced;
  shard::ShardRouter::Stats Before;
  unsigned Slices = 0;
  double Elapsed = 0;
  std::uint64_t Requests = 0, Ok = 0, Native = 0;
  /// Per slice, so that a few seconds of a slower machine move the
  /// medians over slices little.
  std::vector<double> SliceRps, SliceP50, SliceP99;
};

void ServeMeasure::step() {
  struct Outcome {
    std::vector<double> Latency;
    std::vector<std::string> Failures;
    std::uint64_t Ok = 0, Native = 0;
  };
  std::vector<Outcome> Outs(Clients);
  Clock::time_point T0 = Clock::now();
  Clock::time_point End = T0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(SliceSeconds));
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    Threads.emplace_back([this, &Outs, End, Cl] {
      Outcome &O = Outs[Cl];
      std::size_t Cursor = Cl + Slices;
      while (Clock::now() < End) {
        const MixEntry &E = S.Mix[Cursor++ % S.Mix.size()];
        RequestScope Req(nextRequestId());
        Clock::time_point T1 = Clock::now();
        serve::Response Rsp;
        {
          Span Sp("shard::ShardRouter::execute");
          Rsp = S.Router->execute(E.Handle, Deadline);
        }
        O.Latency.push_back(secondsSince(T1) * 1e6);
        if (Rsp.St != serve::Status::Ok)
          O.Failures.push_back(std::string("serve: status ") +
                               serve::statusName(Rsp.St) + " " + Rsp.Message);
        else if (!resultsNear(Rsp.Result, E.Expected))
          O.Failures.push_back("serve: mismatch on\n" + E.Text);
        else {
          ++O.Ok;
          O.Native += Rsp.NativePlan;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double Secs = secondsSince(T0);
  Elapsed += Secs;
  ++Slices;
  std::vector<double> Lat;
  std::uint64_t SliceOk = 0;
  for (Outcome &O : Outs) {
    Lat.insert(Lat.end(), O.Latency.begin(), O.Latency.end());
    R.Attempted += O.Latency.size();
    SliceOk += O.Ok;
    Native += O.Native;
    for (const std::string &F : O.Failures)
      R.fail(F);
  }
  Requests += Lat.size();
  Ok += SliceOk;
  SliceRps.push_back(double(SliceOk) / Secs);
  SliceP50.push_back(percentile(Lat, 0.5));
  SliceP99.push_back(percentile(Lat, 0.99));
}

void ServeMeasure::finish() {
  R.e2e("serve_rps", median(SliceRps), "1/s");
  R.e2e("serve_latency_us.p50", median(SliceP50), "us");
  R.e2e("serve_latency_us.p99", median(SliceP99), "us");
  R.note("serve: " + std::to_string(Requests) + " routed requests in " +
         std::to_string(Slices) + " slices, " + std::to_string(Native) +
         " native");
  if (!Traced)
    return;

  shard::ShardRouter::Stats After = S.Router->stats();
  R.layer("serve.native_share", Ok ? double(Native) / double(Ok) : 0, "ratio");
  double Split = 0;
  for (const MixEntry &E : S.Mix)
    Split += E.Handle->Split;
  R.layer("shard.split_share", Split / double(S.Mix.size()), "ratio");
  R.layer("shard.sub_per_req",
          double(After.SubSent - Before.SubSent) /
              double(After.Execs - Before.Execs),
          "count");
  R.layer("shard.retries", double(After.Retries - Before.Retries), "count");
  extras(Elapsed);
}

void ServeMeasure::extras(double Budget) {
  shard::ShardRouter &Router = *S.Router;
  // One client, request by request: the spec on the router, then the same
  // spec whole on a worker through a direct WireClient.
  std::vector<double> Routed, Direct, DirectShard[Shards], Queue, Run;
  Clock::time_point T2 = Clock::now();
  for (std::size_t I = 0;
       I < 4 * S.Mix.size() || secondsSince(T2) < 0.25 * Budget; ++I) {
    const MixEntry &E = S.Mix[I % S.Mix.size()];
    unsigned Sh = unsigned(I / S.Mix.size()) % Shards;
    RequestScope Req(nextRequestId());
    Clock::time_point T3 = Clock::now();
    serve::Response Rsp;
    {
      Span Sp("shard::ShardRouter::execute");
      Rsp = Router.execute(E.Handle, Deadline);
    }
    Routed.push_back(secondsSince(T3) * 1e6);
    ++R.Attempted;
    if (Rsp.St != serve::Status::Ok || !resultsNear(Rsp.Result, E.Expected))
      R.fail("serve: single-client routed request failed on\n" + E.Text);

    serve::WireClient::ExecResult Out;
    Clock::time_point T4 = Clock::now();
    bool Sent;
    {
      Span Sp("serve::WireClient::exec");
      Sent = S.Direct[Sh].Client->exec(E.Direct[Sh], Deadline.count(), Out);
    }
    double Us = secondsSince(T4) * 1e6;
    Direct.push_back(Us);
    DirectShard[Sh].push_back(Us);
    Queue.push_back(Out.QueueMicros);
    Run.push_back(Out.RunMicros);
    ++R.Attempted;
    bool Good = Sent && Out.St == serve::Status::Ok &&
                Out.Rows.size() == E.Expected.rows().size();
    for (std::size_t Row = 0; Good && Row != Out.Rows.size(); ++Row)
      Good = renderedNear(Out.Rows[Row], E.Expected.rows()[Row]);
    if (!Good)
      R.fail("serve: direct request failed on\n" + E.Text);
  }
  R.layer("serve.queue_us.p50", percentile(Queue, 0.5), "us");
  R.layer("serve.queue_us.p99", percentile(Queue, 0.99), "us");
  R.layer("serve.run_us.p50", percentile(Run, 0.5), "us");
  R.layer("serve.run_us.p99", percentile(Run, 0.99), "us");
  R.layer("serve.direct_latency_us.p50", percentile(Direct, 0.5), "us");
  R.layer("serve.direct_latency_us.p99", percentile(Direct, 0.99), "us");
  R.layer("shard.routed_latency_us.p50", percentile(Routed, 0.5), "us");
  R.layer("shard.router_overhead_us.p50",
          percentile(Routed, 0.5) - percentile(Direct, 0.5), "us");
  for (unsigned Sh = 0; Sh != Shards; ++Sh)
    R.layer("shard.latency_us.p99.shard" + std::to_string(Sh),
            percentile(DirectShard[Sh], 0.99), "us");
  R.note("serve: single-client pass of " + std::to_string(Routed.size()) +
         " routed and " + std::to_string(Direct.size()) + " direct requests");

  // Wire codec cost per value: every expected row of the mix encoded with
  // wireValue and decoded with parseWireValue.
  std::vector<const expr::Value *> Values;
  for (const MixEntry &E : S.Mix)
    for (const expr::Value &V : E.Expected.rows())
      Values.push_back(&V);
  std::deque<std::vector<double>> Arena;
  std::size_t Coded = 0;
  Clock::time_point T5 = Clock::now();
  for (int Rep = 0; Rep != 20; ++Rep, Arena.clear())
    for (const expr::Value *V : Values) {
      expr::Value Back;
      std::string Enc = serve::wireValue(*V);
      if (!serve::parseWireValue(Enc, Back, Arena) ||
          !fuzz::fuzzValueNear(Back, *V))
        R.fail("serve: wire codec round trip differs");
      ++Coded;
    }
  R.layer("serve.wire_codec_ns", secondsSince(T5) * 1e9 / double(Coded), "ns");
}

} // namespace

std::unique_ptr<Measure> perfbench::serveMeasure(ServePhase &S, Report &R,
                                                 bool Traced) {
  return std::make_unique<ServeMeasure>(S, R, Traced);
}
