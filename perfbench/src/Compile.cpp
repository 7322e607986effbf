//===- perfbench/src/Compile.cpp - Cold compiles of a fixed list ---------===//
//
// One compileQuery at a time, with default options, over a fixed list of
// ten shapes: four of the scan shapes on small inputs, three of the
// paper-shaped serve mix, and three stored fuzz::generateSpec specs. Every
// run compiles the whole list at least once and then cycles it while its
// share of the window lasts, so the shapes measured never depend on the
// seed or on how fast they compile. Each compiled query runs once and is
// compared with steno::runReference.
//
// A traced run performs the same pipeline as compileQuery — lower,
// validate, analyze, rewrite, specialize, generate, print, plan the batch
// TU, compile and load — as explicit calls into each layer, with one span
// around each call and the run through the module's entry point. Its
// untraced steps run that same pipeline with the recorder off.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Analysis.h"
#include "analysis/Rewrite.h"
#include "codegen/Generator.h"
#include "codegen/VecGen.h"
#include "cpptree/Printer.h"
#include "expr/Dsl.h"
#include "fuzz/Diff.h"
#include "fuzz/Spec.h"
#include "jit/Jit.h"
#include "quil/Quil.h"
#include "steno/RefExec.h"
#include "steno/Steno.h"
#include "support/Error.h"
#include "support/Random.h"
#include "vec/BatchExec.h"

#include <cmath>
#include <filesystem>
#include <memory>

using namespace perfbench;
using namespace steno;
using namespace steno::expr;
using namespace steno::expr::dsl;
using query::Query;

namespace {

/// One list entry: a query and the small input it runs on.
struct Shape {
  std::string Name;
  std::shared_ptr<fuzz::BuiltQuery> Built;
};

std::shared_ptr<fuzz::BuiltQuery> smallInput(Query Q, unsigned Slots,
                                             std::uint64_t Seed) {
  auto B = std::make_shared<fuzz::BuiltQuery>();
  B->Q = std::move(Q);
  support::SplitMix64 Rng(Seed);
  for (unsigned S = 0; S != Slots; ++S) {
    std::vector<double> V(S == 0 ? 1000 : 10);
    for (double &X : V)
      X = Rng.nextDouble(0.0, 1000.0);
    B->DoubleBufs.push_back(std::move(V));
  }
  for (unsigned S = 0; S != Slots; ++S)
    B->B.bindDoubleArray(S, B->DoubleBufs[S].data(),
                         static_cast<std::int64_t>(B->DoubleBufs[S].size()));
  return B;
}

/// The list for \p Seed: the four scan shapes, the three shapes of the
/// paper-shaped serve mix that they do not already cover, and the stored
/// generated specs. The shapes are the same on every seed; the seed draws
/// the data of the first seven.
std::vector<Shape> buildShapes(std::uint64_t Seed) {
  auto X = param("x", Type::doubleTy());
  auto Y = param("y", Type::doubleTy());
  auto G = param("g", Type::pairTy(Type::int64Ty(), Type::vecTy()));
  auto S = param("s", Type::doubleTy());
  auto V = param("v", Type::doubleTy());
  Query BagSum = Query::overVec(G.second())
                     .aggregate(E(0.0), lambda({S, V}, S + V),
                                lambda({S}, pair(G.first(), S)));
  std::vector<Shape> List = {
      {"sumsq",
       smallInput(Query::doubleArray(0).select(lambda({X}, X * X)).sum(), 1,
                  Seed + 11)},
      {"filtered",
       smallInput(Query::doubleArray(0).where(lambda({X}, X > E(500.0))).sum(),
                  1, Seed + 12)},
      {"cart", smallInput(Query::doubleArray(0)
                              .selectMany(X, Query::doubleArray(1).select(
                                                 lambda({Y}, X * Y)))
                              .sum(),
                          2, Seed + 13)},
      {"group", smallInput(Query::doubleArray(0)
                               .groupBy(lambda({X}, toInt64(X / E(100.0))))
                               .selectNested(G, BagSum),
                           1, Seed + 14)}};

  auto addSpecs = [&](const std::vector<fuzz::QuerySpec> &Specs,
                      const char *Prefix) {
    for (std::size_t I = 0; I != Specs.size(); ++I) {
      auto B = std::make_shared<fuzz::BuiltQuery>();
      std::string Err;
      if (!fuzz::buildSpec(Specs[I], *B, &Err))
        support::fatalError("perfbench: " + Err);
      List.push_back({Prefix + std::to_string(I), std::move(B)});
    }
  };
  // Group, Sort and the non-associative fold. The mix's first four (Sum,
  // Scale, filtered Count, flatten) repeat the shapes of sumsq, filtered
  // and cart, and one pass over the list must stay short enough for every
  // run to compile each shape.
  std::vector<fuzz::QuerySpec> Mix = paperMix(Seed);
  addSpecs({Mix.begin() + 4, Mix.end()}, "mix");
  addSpecs(generatedSpecs(), "gen");
  return List;
}

/// What the front end produces for one query, with the counts the census
/// sums.
struct FrontEnd {
  std::string Source;
  cpptree::Program Program;
  std::size_t Ops = 0;
  std::size_t Rewrites = 0;
  bool Vectorized = false;
  std::string Error;
};

/// The front end of compileQuery, in its order, one span per layer call:
/// lower, validate, analyze, rewrite (when the chain has targets),
/// specialize, generate, print, and the batch TU when the chain vectorizes.
FrontEnd frontEnd(const Query &Q, const std::string &Entry) {
  FrontEnd F;
  quil::Chain Chain;
  {
    Span S("quil::lower");
    Chain = quil::lower(Q);
  }
  F.Ops = Chain.Ops.size();
  {
    Span S("quil::validate");
    if (auto Err = quil::validate(Chain)) {
      F.Error = *Err;
      return F;
    }
  }
  {
    Span S("analysis::analyzeChain");
    if (!analysis::analyzeChain(Chain).ok()) {
      F.Error = "rejected by analysis";
      return F;
    }
  }
  if (quil::chainHasRewriteTargets(Chain)) {
    Span S("quil::rewriteChain");
    quil::RewriteResult RR = quil::rewriteChain(Chain);
    F.Rewrites = RR.Certs.size();
    if (RR.Changed)
      Chain = std::move(RR.Rewritten);
  }
  {
    Span S("quil::specializeGroupByAggregate");
    Chain = quil::specializeGroupByAggregate(Chain);
  }
  {
    Span S("codegen::generate");
    F.Program = codegen::generate(Chain, Entry);
  }
  cpptree::SlotUsage Slots = cpptree::scanSlots(F.Program);
  {
    Span S("cpptree::printProgram");
    F.Source = cpptree::printProgram(F.Program);
  }
  vec::VecPlan Plan;
  {
    Span S("vec::planChain");
    Plan = vec::planChain(Chain);
  }
  if (Plan.Ok) {
    Span S("codegen::printVectorizedProgram");
    F.Source = codegen::printVectorizedProgram(Plan, Slots, Entry, false);
    F.Vectorized = true;
  }
  return F;
}

/// The compile phase in one mode, recorder off or on. A step is one cold
/// compile of the next shape of the list, then one run checked against
/// runReference.
class CompileMeasure : public Measure {
public:
  CompileMeasure(const Config &C, Report &R, bool Traced, bool Pipeline)
      : List(buildShapes(C.Seed)), Millis(List.size()), R(R), Traced(Traced),
        Pipeline(Pipeline) {}
  void step() override;
  /// Every shape of the list compiled at least once.
  bool enough() const override { return Next >= List.size(); }
  void finish() override;

private:
  bool pipelineCompileAndRun(const Shape &Sh, std::vector<double> &Ms,
                             QueryResult &Got);

  std::vector<Shape> List;
  std::vector<std::vector<double>> Millis; ///< Per shape of the list.
  Report &R;
  bool Traced;
  bool Pipeline; ///< Explicit layer calls instead of compileQuery.
  std::size_t Next = 0;
  std::vector<double> CcMs, DlopenUs;
};

void CompileMeasure::step() {
  const Shape &Sh = List[Next % List.size()];
  std::vector<double> &Ms = Millis[Next++ % List.size()];
  const fuzz::BuiltQuery &B = *Sh.Built;
  QueryResult Want = runReference(B.Q, B.B);
  QueryResult Got;
  ++R.Attempted;
  RequestScope Req(nextRequestId());
  if (Pipeline) {
    if (!pipelineCompileAndRun(Sh, Ms, Got))
      return;
  } else {
    Clock::time_point T1 = Clock::now();
    CompiledQuery CQ = compileQuery(B.Q);
    Ms.push_back(secondsSince(T1) * 1e3);
    Got = CQ.run(B.B);
  }
  if (!resultsNear(Got, Want))
    R.fail("compile " + Sh.Name + ": result differs from runReference");
}

bool CompileMeasure::pipelineCompileAndRun(const Shape &Sh,
                                            std::vector<double> &Ms,
                                            QueryResult &Got) {
  // Unique per process: the object files are named after the entry.
  static unsigned Compiles = 0;
  std::string Entry = "perfbench_q" + std::to_string(Compiles++);
  const fuzz::BuiltQuery &B = *Sh.Built;
  std::unique_ptr<jit::CompiledModule> M;
  FrontEnd F;
  std::string Err;
  Clock::time_point T1 = Clock::now();
  {
    Span Root("compileQuery");
    F = frontEnd(B.Q, Entry);
    if (F.Error.empty()) {
      Clock::time_point T2 = Clock::now();
      Span S("jit::CompiledModule::compile");
      M = jit::CompiledModule::compile(F.Source, Entry, &Err);
      CcMs.push_back(secondsSince(T2) * 1e3);
    }
  }
  Ms.push_back(secondsSince(T1) * 1e3);
  if (!M) {
    R.fail("compile " + Sh.Name + ": " + (F.Error.empty() ? Err : F.Error));
    return false;
  }
  // dlopen cost on a fresh copy of the object (the loader would
  // otherwise return the already-mapped handle).
  std::string Copy = M->objectPath() + ".load.so";
  std::filesystem::copy_file(M->objectPath(), Copy);
  {
    Clock::time_point T2 = Clock::now();
    Span S("jit::CompiledModule::load");
    std::unique_ptr<jit::CompiledModule> L =
        jit::CompiledModule::load(Copy, Entry, &Err);
    DlopenUs.push_back(secondsSince(T2) * 1e6);
    if (!L)
      R.fail("compile " + Sh.Name + ": " + Err);
  }
  Span S("jit::run");
  jit::ExecOutput Out = jit::run(M->entry(), B.B.sources(), B.B.values(),
                                 F.Program.ResultType);
  Got = QueryResult(F.Program.ScalarResult, std::move(Out.Rows),
                    std::move(Out.Arena));
  return true;
}

void CompileMeasure::finish() {
  // Percentiles over the list, each shape counted once by the median of
  // its compiles.
  std::vector<double> PerShape;
  for (const std::vector<double> &Ms : Millis)
    if (!Ms.empty())
      PerShape.push_back(median(Ms));
  R.e2e("compile_ms.p50", percentile(PerShape, 0.5), "ms");
  R.e2e("compile_ms.p75", percentile(PerShape, 0.75), "ms");
  std::size_t Above =
      PerShape.size() - std::size_t(std::ceil(0.75 * double(PerShape.size())));
  R.note("compile: " + std::to_string(Next) + " compiles of " +
         std::to_string(List.size()) + " shapes; " + std::to_string(Above) +
         " shapes above p75");
  if (!Traced)
    return;
  R.layer("quil.lower_us", spanMedianMicros("quil::lower"), "us");
  R.layer("quil.validate_us", spanMedianMicros("quil::validate"), "us");
  R.layer("quil.specialize_us",
          spanMedianMicros("quil::specializeGroupByAggregate"), "us");
  R.layer("analysis.analyze_us", spanMedianMicros("analysis::analyzeChain"),
          "us");
  R.layer("analysis.rewrite_us", spanMedianMicros("quil::rewriteChain"), "us");
  R.layer("codegen.generate_us", spanMedianMicros("codegen::generate"), "us");
  R.layer("codegen.print_us", spanMedianMicros("cpptree::printProgram"), "us");
  R.layer("vec.plan_us", spanMedianMicros("vec::planChain"), "us");
  R.layer("vec.print_us", spanMedianMicros("codegen::printVectorizedProgram"),
          "us");
  R.layer("jit.cc_ms", median(CcMs), "ms");
  R.layer("jit.dlopen_us", median(DlopenUs), "us");
}

} // namespace

std::unique_ptr<Measure> perfbench::compileMeasure(const Config &C, Report &R,
                                                   bool Traced, bool Pipeline) {
  return std::make_unique<CompileMeasure>(C, R, Traced, Pipeline);
}

void perfbench::compileCensus(const Config &C, Report &R) {
  std::vector<Shape> All = buildShapes(C.Seed);
  double Ops = 0, Rewrites = 0, Bytes = 0, Planned = 0;
  for (std::size_t I = 0; I != All.size(); ++I) {
    FrontEnd F = frontEnd(All[I].Built->Q, "perfbench_c" + std::to_string(I));
    Ops += double(F.Ops);
    Rewrites += double(F.Rewrites);
    Bytes += double(F.Source.size());
    Planned += F.Vectorized;
  }
  R.layer("quil.ops", Ops, "count");
  R.layer("analysis.rewrites_applied", Rewrites, "count");
  R.layer("codegen.source_bytes", Bytes, "bytes");
  R.layer("vec.planned_share", Planned / double(All.size()), "ratio");
  R.note("census: " + std::to_string(All.size()) + " shapes");
}
