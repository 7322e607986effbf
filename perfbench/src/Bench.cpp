//===- perfbench/src/Bench.cpp - Spans, report and statistics ------------===//

#include "Bench.h"

#include "fuzz/Diff.h"
#include "fuzz/Spec.h"
#include "steno/Result.h"
#include "support/Error.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

namespace {
thread_local std::uint64_t CurrentSpan = 0;
thread_local std::uint64_t CurrentRequest = 0;
std::atomic<std::uint64_t> NextRequest{1};
} // namespace

Tracer::Tracer() : Epoch(Clock::now()) {}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

void Tracer::record(SpanRecord R) {
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(std::move(R));
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> Out;
  for (const SpanRecord &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.micros());
  return Out;
}

std::map<std::string, double> Tracer::selfMicros() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::uint64_t, std::vector<const SpanRecord *>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back(&S);
  std::map<std::string, double> Self;
  for (const SpanRecord &S : Spans) {
    // Children may overlap (parallel sub-requests): subtract the union of
    // their intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> Iv;
    auto It = Children.find(S.Id);
    if (It != Children.end())
      for (const SpanRecord *C : It->second)
        Iv.push_back({std::max(C->StartNs, S.StartNs),
                      std::min(C->EndNs, S.EndNs)});
    std::sort(Iv.begin(), Iv.end());
    std::int64_t Covered = 0, End = S.StartNs;
    for (auto [B, E] : Iv) {
      B = std::max(B, End);
      if (E > B) {
        Covered += E - B;
        End = E;
      }
    }
    Self[S.Name] += double(S.EndNs - S.StartNs - Covered) / 1e3;
  }
  return Self;
}

bool Tracer::writeJson(const std::string &Path, std::string *Err) const {
  std::map<std::string, double> Self = selfMicros();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Err)
      *Err = "cannot write " + Path;
    return false;
  }
  std::lock_guard<std::mutex> Lock(M);
  std::fprintf(F, "{\"spans\":[\n");
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 I ? "," : "", S.Name.c_str(), (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, (unsigned long long)S.Request,
                 (long long)S.StartNs, (long long)S.EndNs);
  }
  std::fprintf(F, "],\"self_us\":{");
  bool First = true;
  for (const auto &[Name, Us] : Self) {
    std::fprintf(F, "%s\"%s\":%.3f", First ? "" : ",", Name.c_str(), Us);
    First = false;
  }
  std::fprintf(F, "}}\n");
  return std::fclose(F) == 0;
}

Span::Span(const char *Name) {
  Tracer &T = Tracer::get();
  if (!T.enabled())
    return;
  Active = true;
  R.Name = Name;
  R.Id = T.newId();
  R.Parent = CurrentSpan;
  R.Request = CurrentRequest;
  SavedParent = CurrentSpan;
  CurrentSpan = R.Id;
  R.StartNs = T.nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  Tracer &T = Tracer::get();
  R.EndNs = T.nowNs();
  CurrentSpan = SavedParent;
  T.record(std::move(R));
}

RequestScope::RequestScope(std::uint64_t Id) : Saved(CurrentRequest) {
  CurrentRequest = Id;
}

RequestScope::~RequestScope() { CurrentRequest = Saved; }

std::uint64_t perfbench::nextRequestId() { return NextRequest.fetch_add(1); }

void Report::fail(const std::string &What) {
  ++Failed;
  if (FirstFailures.size() < 8)
    FirstFailures.push_back(What);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P * double(V.size()));
  std::size_t Idx = Rank < 1 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double perfbench::median(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  std::size_t N = S.size();
  return N % 2 ? S[N / 2] : 0.5 * (S[N / 2 - 1] + S[N / 2]);
}

std::vector<steno::fuzz::QuerySpec> perfbench::paperMix(std::uint64_t Seed) {
  using namespace steno::fuzz;
  auto op = [](OpK K) {
    OpSpec O;
    O.K = K;
    return O;
  };
  std::vector<QuerySpec> Mix;
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 4096, 11});
    OpSpec Sel = op(OpK::Select);
    Sel.T = TransTmpl::Square;
    OpSpec Agg = op(OpK::Agg);
    Agg.A = AggKind::Sum;
    S.Ops = {Sel, Agg};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 4096, 12});
    S.HasCaptureD = true;
    S.CaptureD = 2.5;
    OpSpec Sel = op(OpK::Select);
    Sel.T = TransTmpl::CapScale;
    OpSpec Agg = op(OpK::Agg);
    Agg.A = AggKind::Sum;
    S.Ops = {Sel, Agg};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Skewed, 4096, 13});
    OpSpec Wh = op(OpK::Where);
    Wh.P = PredTmpl::GtC;
    Wh.DArg = 10.0;
    OpSpec Agg = op(OpK::Agg);
    Agg.A = AggKind::Count;
    S.Ops = {Wh, Agg};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 256, 14});
    S.Sources.push_back({1, ElemTy::Double, DataClass::Uniform, 16, 15});
    OpSpec SM = op(OpK::SelectMany);
    SM.Slot = 1;
    OpSpec Agg = op(OpK::Agg);
    Agg.A = AggKind::Sum;
    S.Ops = {SM, Agg};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Skewed, 4096, 16});
    OpSpec GA = op(OpK::GroupAgg);
    GA.Key = KeyTmpl::Bucket;
    GA.DArg = 25.0;
    GA.G = GroupStep::Sum;
    S.Ops = {GA};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Double, DataClass::Uniform, 2048, 17});
    OpSpec Ord = op(OpK::OrderBy);
    Ord.Key = KeyTmpl::Abs;
    S.Ops = {Ord, op(OpK::ToArray)};
    Mix.push_back(S);
  }
  {
    QuerySpec S;
    S.Sources.push_back({0, ElemTy::Int64, DataClass::Uniform, 2048, 18});
    OpSpec Agg = op(OpK::Agg);
    Agg.A = AggKind::FoldNonAssoc;
    S.Ops = {Agg};
    Mix.push_back(S);
  }
  steno::support::SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 5);
  for (QuerySpec &S : Mix)
    for (SourceSpec &Src : S.Sources)
      Src.Seed = Rng.next();
  return Mix;
}

namespace {

// Three fuzz::generateSpec outputs, picked from the first six that pass
// the default front end with generator seed 17. They are stored, data
// included, so that neither the seed nor a change to the generator
// changes the shapes a run measures: per-shape costs differ widely, and a
// seeded choice of shapes would move every percentile from seed to seed.
// Their data stays fixed because a generated spec may divide by a value
// that other data would make zero. The serve mix takes the first two: one
// runs whole on its home shard, the other splits across the shards.
const char *const StoredSpecs[] = {
    R"(steno-fuzz v1
source 0 double 30 ascending 704659065801186087
source 1 double 4 skewed 2142642081951059333
op where ltc 53.798787678249312
op select square 0
op orderby bucket 3
op selectnestedsum 1 addxy
op orderby id 0
op agg foldnocomb 0
end
)",
    R"(steno-fuzz v1
source 0 double 43 uniform 12055495660123309877
capture int64 0
op groupaggdense 13 max combine
end
)",
    R"(steno-fuzz v1
source 0 double 11 ascending 13995330791017197803
source 1 double 4 constant 14849727101064752233
capture double 2.2538269253074672
op selectmany 1 mulxy 1
end
)",
};

} // namespace

std::vector<steno::fuzz::QuerySpec> perfbench::generatedSpecs() {
  std::vector<steno::fuzz::QuerySpec> Out;
  for (const char *Text : StoredSpecs) {
    steno::fuzz::QuerySpec Spec;
    std::string Err;
    if (!steno::fuzz::parseSpec(Text, Spec, &Err))
      steno::support::fatalError("perfbench: stored spec: " + Err);
    Out.push_back(std::move(Spec));
  }
  return Out;
}

bool perfbench::resultsNear(const steno::QueryResult &Got,
                            const steno::QueryResult &Want) {
  if (Got.isScalar() != Want.isScalar() ||
      Got.rows().size() != Want.rows().size())
    return false;
  for (std::size_t I = 0; I != Got.rows().size(); ++I)
    if (!steno::fuzz::fuzzValueNear(Got.rows()[I], Want.rows()[I]))
      return false;
  return true;
}

double perfbench::spanMedianMicros(const char *Name) {
  return median(Tracer::get().durations(Name));
}

double perfbench::maxRssMb(bool Children) {
  struct rusage U {};
  ::getrusage(Children ? RUSAGE_CHILDREN : RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}
