//===- perfbench/src/Scan.cpp - Warm native scans over large inputs ------===//
//
// Five shapes over inputs larger than the caches, each precompiled once
// with default options and timed warm against a hand-written loop:
//
//   sumsq     Figure 1: xs.Select(x => x*x).Sum(), 10^7 doubles
//   filtered  xs.Where(x => x > 0.5).Sum(), ~50% selectivity, 10^7 doubles
//   cart      Figure 13 Cart: nested SelectMany, 10^5 x 10^3 pairs
//   group     Figure 13 Group: GroupBy bucket Sum, 5*10^6 Gaussian mixture
//   par       the filtered chain through DistributedQuery::runParallel on
//             4 workers over skewed input (§6)
//
// Repetitions interleave the shapes and reverse their order every rep, so
// clock-frequency drift lands on every shape alike.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dryad/Dist.h"
#include "dryad/ThreadPool.h"
#include "expr/Dsl.h"
#include "fuzz/Diff.h"
#include "linq/Linq.h"
#include "obs/Metrics.h"
#include "steno/Steno.h"
#include "support/Random.h"
#include "support/TempFile.h"
#include "vec/BatchExec.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

constexpr std::int64_t N = 10000000;     // sumsq, filtered, par
constexpr std::int64_t CartOuter = 100000;
constexpr std::int64_t CartInner = 1000;
constexpr std::int64_t GroupN = 5000000;
constexpr unsigned ParWorkers = 4;

const char *const ShapeNames[] = {"sumsq", "filtered", "cart", "group", "par"};
constexpr int NumShapes = 5;

/// Keeps the optimizer from discarding a result.
template <typename T> void keep(const T &V) {
  asm volatile("" : : "g"(&V) : "memory");
}

std::vector<double> uniform(std::int64_t Count, std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(static_cast<std::size_t>(Count));
  for (double &V : Out)
    V = Rng.nextDouble();
  return Out;
}

/// Skewed for the morsel scheduler: the first quarter all passes the
/// filter, the rest passes one time in ten.
std::vector<double> skewed(std::int64_t Count, std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  std::vector<double> Out(static_cast<std::size_t>(Count));
  for (std::int64_t I = 0; I != Count; ++I) {
    bool Pass = I < Count / 4 || Rng.nextBelow(10) == 0;
    Out[I] = Pass ? Rng.nextDouble(0.5, 1.0) : Rng.nextDouble(0.0, 0.5);
  }
  return Out;
}

/// The paper's Group input: a one-dimensional mixture of Gaussians in
/// [0, 1000).
std::vector<double> gaussianMixture(std::int64_t Count, std::uint64_t Seed) {
  support::SplitMix64 Rng(Seed);
  const double Means[] = {100.0, 400.0, 750.0};
  const double Sigmas[] = {40.0, 90.0, 30.0};
  std::vector<double> Out;
  Out.reserve(static_cast<std::size_t>(Count));
  while (Out.size() < static_cast<std::size_t>(Count)) {
    double U = Rng.nextDouble();
    int C = U < 0.5 ? 0 : (U < 0.8 ? 1 : 2);
    double V = Means[C] + Sigmas[C] * Rng.nextGaussian();
    if (V >= 0.0 && V < 1000.0)
      Out.push_back(V);
  }
  return Out;
}

Query sumsqQuery() {
  auto X = param("x", Type::doubleTy());
  return Query::doubleArray(0).select(lambda({X}, X * X)).sum();
}

Query filteredQuery() {
  auto X = param("x", Type::doubleTy());
  return Query::doubleArray(0).where(lambda({X}, X > E(0.5))).sum();
}

Query cartQuery() {
  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());
  return Query::doubleArray(0)
      .selectMany(X, Query::doubleArray(1).select(lambda({Y}, X * Y)))
      .sum();
}

Query groupQuery() {
  auto X = param("x", Type::doubleTy());
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto S = param("s", Type::doubleTy());
  auto V = param("v", Type::doubleTy());
  Query BagSum = Query::overVec(G.second())
                     .aggregate(E(0.0), lambda({S, V}, S + V),
                                lambda({S}, pair(G.first(), S)));
  return Query::doubleArray(0)
      .groupBy(lambda({X}, toInt64(X)))
      .selectNested(G, BagSum);
}

double handSumsq(const std::vector<double> &Xs) {
  double Acc = 0;
  for (double X : Xs)
    Acc += X * X;
  return Acc;
}

double handFiltered(const std::vector<double> &Xs) {
  double Acc = 0;
  for (double X : Xs)
    if (X > 0.5)
      Acc += X;
  return Acc;
}

double handCart(const std::vector<double> &Xs, const std::vector<double> &Ys) {
  double Acc = 0;
  for (double X : Xs)
    for (double Y : Ys)
      Acc += X * Y;
  return Acc;
}

std::map<std::int64_t, double> handGroup(const std::vector<double> &Xs) {
  std::unordered_map<std::int64_t, double> Sums;
  for (double X : Xs)
    Sums[static_cast<std::int64_t>(X)] += X;
  return std::map<std::int64_t, double>(Sums.begin(), Sums.end());
}

double fileBytes(const std::string &Path) {
  struct stat St {};
  return ::stat(Path.c_str(), &St) == 0 ? double(St.st_size) : 0;
}

/// Runs \p Args with stdout sent to \p OutPath and returns the peak RSS
/// in MB of it and the processes it waited for (the c++ front end waits
/// for cc1plus), or -1 on failure. posix_spawn keeps the child from
/// starting as a copy of this process's large address space.
double spawnPeakRssMb(std::vector<std::string> Args,
                      const std::string &OutPath) {
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 1, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_addopen(&Fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Argv[0], &Fa, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc != 0)
    return -1;
  int Status = 0;
  struct rusage U {};
  if (::wait4(Pid, &Status, 0, &U) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1;
  return double(U.ru_maxrss) / 1024.0;
}

/// What the compiler does with one generated translation unit, run the
/// way the JIT runs it: lines after preprocessing, and the compiler's
/// peak RSS for the -O3 shared-object build.
void compilerProbe(const std::string &Source, Report &R) {
  const std::string Dir = support::processTempDir();
  const std::string Src = Dir + "/perfbench_probe.cpp";
  support::writeFile(Src, Source);
  const std::string Inc = STENO_SOURCE_INCLUDE;
  std::string Pre = Dir + "/perfbench_probe.ii";
  double Lines = -1;
  if (spawnPeakRssMb({STENO_HOST_CXX, "-std=c++20", "-E", "-I", Inc, Src},
                     Pre) >= 0) {
    std::string Text = support::readFileOrEmpty(Pre);
    Lines = double(std::count(Text.begin(), Text.end(), '\n'));
  }
  double Rss = spawnPeakRssMb({STENO_HOST_CXX, "-std=c++20", "-O3", "-fPIC",
                               "-shared", "-I", Inc, "-o",
                               Dir + "/perfbench_probe.so", Src},
                              "/dev/null");
  if (Lines < 0 || Rss < 0)
    R.fail("scan: compiler probe failed");
  R.layer("jit.tu_preprocessed_lines", Lines, "lines");
  R.layer("jit.cc_peak_rss_mb", Rss, "MB");
}

} // namespace

namespace perfbench {

class ScanPhase {
public:
  std::vector<double> Xs, Skew, Mog, CartXs, CartYs;
  Bindings BXs, BSkew, BMog, BCart, BOne;
  CompiledQuery Sumsq, Filtered, Cart, Group;
  std::unique_ptr<dryad::DistributedQuery> Par;
  dryad::ThreadPool Pool{ParWorkers};
  // Hand-loop results: the reference every Steno result is checked against.
  double RefSumsq = 0, RefFiltered = 0, RefCart = 0, RefPar = 0;
  std::map<std::int64_t, double> RefGroup;
  double One = 0.5;
};

} // namespace perfbench

ScanHandle perfbench::setupScan(const Config &C, Report &R) {
  ScanHandle S(new ScanPhase);
  std::uint64_t Seed = C.Seed * 1000003;
  S->Xs = uniform(N, Seed + 1);
  S->Skew = skewed(N, Seed + 2);
  S->Mog = gaussianMixture(GroupN, Seed + 3);
  S->CartXs = uniform(CartOuter, Seed + 4);
  S->CartYs = uniform(CartInner, Seed + 5);
  S->BXs.bindDoubleArray(0, S->Xs.data(), N);
  S->BSkew.bindDoubleArray(0, S->Skew.data(), N);
  S->BMog.bindDoubleArray(0, S->Mog.data(), GroupN);
  S->BCart.bindDoubleArray(0, S->CartXs.data(), CartOuter);
  S->BCart.bindDoubleArray(1, S->CartYs.data(), CartInner);
  S->BOne.bindDoubleArray(0, &S->One, 1);

  S->RefSumsq = handSumsq(S->Xs);
  S->RefFiltered = handFiltered(S->Xs);
  S->RefCart = handCart(S->CartXs, S->CartYs);
  S->RefPar = handFiltered(S->Skew);
  S->RefGroup = handGroup(S->Mog);

  // Compiled once each, in a fixed order, with default options.
  S->Sumsq = compileQuery(sumsqQuery());
  S->Filtered = compileQuery(filteredQuery());
  S->Cart = compileQuery(cartQuery());
  S->Group = compileQuery(groupQuery());
  S->Par = std::make_unique<dryad::DistributedQuery>(
      dryad::DistributedQuery::compile(filteredQuery()));
  if (!S->Par->parallel())
    R.note("scan: par compiled into the sequential fallback: " +
           S->Par->whyNotParallel());
  // One untimed run of each, so first-touch costs stay in set-up.
  keep(S->Sumsq.run(S->BXs));
  keep(S->Filtered.run(S->BXs));
  keep(S->Cart.run(S->BCart));
  keep(S->Group.run(S->BMog));
  keep(S->Par->runParallel(S->Pool, S->BSkew));
  return S;
}

void perfbench::PhaseDeleter::operator()(ScanPhase *S) const { delete S; }

namespace {

void checkScalar(Report &R, const char *Shape, const QueryResult &Got,
                 double Want) {
  ++R.Attempted;
  if (!Got.isScalar() || Got.rows().size() != 1 ||
      !fuzz::fuzzValueNear(Got.rows()[0], Value(Want)))
    R.fail(std::string("scan ") + Shape + ": result differs from hand loop");
}

void checkGroup(Report &R, const QueryResult &Got,
                const std::map<std::int64_t, double> &Want) {
  ++R.Attempted;
  std::map<std::int64_t, double> Rows;
  bool Ok = !Got.isScalar() && Got.rows().size() == Want.size();
  for (const Value &V : Got.rows()) {
    if (!Ok || !V.isPair() || !V.first().isInt64() || !V.second().isDouble()) {
      Ok = false;
      break;
    }
    Rows[V.first().asInt64()] = V.second().asDouble();
  }
  if (Ok)
    for (const auto &[K, Sum] : Want) {
      auto It = Rows.find(K);
      if (It == Rows.end() || !fuzz::fuzzValueNear(Value(It->second),
                                                   Value(Sum))) {
        Ok = false;
        break;
      }
    }
  if (!Ok)
    R.fail("scan group: buckets differ from hand loop");
}

double nsPerElem(double Seconds, double Elems) { return Seconds * 1e9 / Elems; }

} // namespace

namespace {

/// The scan phase in one mode, recorder off or on. A step is one
/// repetition of every shape, in forward order on even repetitions and
/// reverse on odd ones.
class ScanMeasure : public Measure {
public:
  ScanMeasure(ScanPhase &S, Report &R, bool Traced)
      : S(S), R(R), Traced(Traced) {}
  void step() override;
  bool enough() const override { return Reps >= 6; }
  void finish() override;

private:
  void runShape(int Shape);

  ScanPhase &S;
  Report &R;
  bool Traced;
  int Reps = 0;
  std::vector<double> Steno[NumShapes], Hand[NumShapes], Linq, SeqSkew,
      Steals, Dispatched;
  obs::Counter &StealCtr = obs::counter("dryad.morsel.steals");
  obs::Counter &DispCtr = obs::counter("dryad.morsel.dispatched");
};

template <typename Fn> double timeIt(Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  return secondsSince(T0);
}

void ScanMeasure::step() {
  for (int I = 0; I != NumShapes; ++I)
    runShape(Reps % 2 ? NumShapes - 1 - I : I);
  if (Traced)
    Linq.push_back(nsPerElem(timeIt([&] {
                               keep(linq::fromSpan(S.Xs.data(), S.Xs.size())
                                        .select([](double X) { return X * X; })
                                        .sum());
                             }),
                             double(N)));
  ++Reps;
}

void ScanMeasure::runShape(int Shape) {
  const double Elems[NumShapes] = {double(N), double(N),
                                   double(CartOuter) * double(CartInner),
                                   double(GroupN), double(N)};
  // The hand loops are the bases of the traced ratios; untraced steps
  // spend their share on Steno runs only (results are checked against
  // the hand-loop values computed at set-up either way).
  auto timeHand = [&](auto &&F) { return Traced ? timeIt(F) : 0.0; };
  RequestScope Req(nextRequestId());
  QueryResult Got;
  double Secs = 0, HandSecs = 0;
  switch (Shape) {
  case 0:
    Secs = timeIt([&] {
      Span Sp("CompiledQuery::run");
      Got = S.Sumsq.run(S.BXs);
    });
    checkScalar(R, "sumsq", Got, S.RefSumsq);
    HandSecs = timeHand([&] { keep(handSumsq(S.Xs)); });
    break;
  case 1:
    Secs = timeIt([&] {
      Span Sp("CompiledQuery::run");
      Got = S.Filtered.run(S.BXs);
    });
    checkScalar(R, "filtered", Got, S.RefFiltered);
    HandSecs = timeHand([&] { keep(handFiltered(S.Xs)); });
    break;
  case 2:
    Secs = timeIt([&] {
      Span Sp("CompiledQuery::run");
      Got = S.Cart.run(S.BCart);
    });
    checkScalar(R, "cart", Got, S.RefCart);
    HandSecs = timeHand([&] { keep(handCart(S.CartXs, S.CartYs)); });
    break;
  case 3:
    Secs = timeIt([&] {
      Span Sp("CompiledQuery::run");
      Got = S.Group.run(S.BMog);
    });
    checkGroup(R, Got, S.RefGroup);
    HandSecs = timeHand([&] { keep(handGroup(S.Mog)); });
    break;
  case 4: {
    std::uint64_t St0 = StealCtr.value(), D0 = DispCtr.value();
    Secs = timeIt([&] {
      Span Sp("dryad::DistributedQuery::runParallel");
      Got = S.Par->runParallel(S.Pool, S.BSkew);
    });
    Steals.push_back(double(StealCtr.value() - St0));
    Dispatched.push_back(double(DispCtr.value() - D0));
    checkScalar(R, "par", Got, S.RefPar);
    HandSecs = timeHand([&] { keep(handFiltered(S.Skew)); });
    if (Traced) {
      // The sequential base of the speedup: the same chain, one thread,
      // the same skewed input.
      QueryResult Seq;
      SeqSkew.push_back(timeIt([&] { Seq = S.Filtered.run(S.BSkew); }));
      checkScalar(R, "par (sequential base)", Seq, S.RefPar);
    }
    break;
  }
  }
  Steno[Shape].push_back(nsPerElem(Secs, Elems[Shape]));
  if (Traced)
    Hand[Shape].push_back(nsPerElem(HandSecs, Elems[Shape]));
}

void ScanMeasure::finish() {
  R.note("scan: " + std::to_string(Reps) + " reps of each shape");
  for (int I = 0; I != NumShapes; ++I) {
    std::string Name = ShapeNames[I];
    double StenoNs = median(Steno[I]);
    R.e2e("scan_ns_per_elem." + Name, StenoNs, "ns");
    if (!Traced)
      continue;
    double HandNs = median(Hand[I]);
    R.layer("ref.hand_ns_per_elem." + Name, HandNs, "ns");
    R.layer("steno.overhead_vs_hand." + Name, StenoNs / HandNs, "ratio");
  }
  if (!Traced)
    return;

  R.layer("ref.linq_ns_per_elem.sumsq", median(Linq), "ns");
  double Seq = nsPerElem(median(SeqSkew), double(N));
  double ParNs = median(Steno[4]);
  R.layer("dryad.par_base.seq_ns_per_elem", Seq, "ns");
  R.layer("dryad.par_base.par_ns_per_elem", ParNs, "ns");
  R.layer("dryad.par_speedup", Seq / ParNs, "ratio");
  R.layer("dryad.morsel.steals", median(Steals), "count");
  R.layer("dryad.morsel.dispatched", median(Dispatched), "count");

  // Which generator each shape got: 1 = the batched (VecGen) TU.
  R.layer("vec.vectorized.sumsq", S.Sumsq.vectorized(), "flag");
  R.layer("vec.vectorized.filtered", S.Filtered.vectorized(), "flag");
  R.layer("vec.vectorized.cart", S.Cart.vectorized(), "flag");
  R.layer("vec.vectorized.group", S.Group.vectorized(), "flag");
  R.layer("vec.vectorized.par", vec::planChain(S.Par->plan().VertexChain).Ok,
          "flag");

  // Fixed per-call cost of run(): Figure 1's query on one element.
  std::vector<double> Fixed;
  for (int I = 0; I != 2000; ++I) {
    Clock::time_point T1 = Clock::now();
    keep(S.Sumsq.run(S.BOne));
    Fixed.push_back(secondsSince(T1) * 1e6);
  }
  R.layer("steno.run_fixed_us", median(Fixed), "us");

  // Artifact sizes of the four whole-query modules, and what the compiler
  // makes of one generated TU (every TU includes the same runtime).
  double SoBytes = 0;
  for (const CompiledQuery *Q : {&S.Sumsq, &S.Filtered, &S.Cart, &S.Group})
    SoBytes += fileBytes(PersistedQueryArtifact::describe(*Q).SharedObjectPath);
  R.layer("jit.so_bytes", SoBytes, "bytes");
  compilerProbe(S.Sumsq.generatedSource(), R);
}

} // namespace

std::unique_ptr<Measure> perfbench::scanMeasure(ScanPhase &S, Report &R,
                                                bool Traced) {
  return std::make_unique<ScanMeasure>(S, R, Traced);
}
