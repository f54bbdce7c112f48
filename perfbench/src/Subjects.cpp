//===- Subjects.cpp - Seeded session lists of the three workloads --------===//

#include "Subjects.h"

#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"
#include "workload/Synthetic.h"

#include <algorithm>
#include <utility>

using namespace perfbench;
using namespace gadt;

namespace {

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ^ 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<unsigned>(I))]);
  }

private:
  uint64_t State;
};

/// \p Count values in [1, N], one from each of \p Count equal strata, all
/// shifted by one seeded offset within the middle half of a stratum
/// (jittered systematic sampling). The seed moves every value, while the
/// work of a whole session list barely changes with it, because session
/// cost varies smoothly with the value.
std::vector<unsigned> systematic(Rng &R, unsigned N, unsigned Count) {
  std::vector<unsigned> Out;
  double Offset = 0.25 + 0.5 * R.unit();
  for (unsigned J = 0; J < Count; ++J) {
    double X = (J + Offset) / Count;
    Out.push_back(std::min(N, 1 + static_cast<unsigned>(X * N)));
  }
  return Out;
}

Subject fromPair(std::string Family, std::string Name,
                 workload::ProgramPair P) {
  Subject S;
  S.Family = std::move(Family);
  S.Name = S.Family + Name;
  S.Source = std::move(P.Buggy);
  S.Intended = std::move(P.Fixed);
  S.ExpectUnit = std::move(P.BuggyRoutine);
  return S;
}

Subject chain(unsigned N, unsigned Bug) {
  return fromPair("chain", std::to_string(N) + "@" + std::to_string(Bug),
                  workload::chainProgram(N, Bug));
}

Subject figure4() {
  Subject S;
  S.Family = "figure4";
  S.Name = "figure4";
  S.Source = workload::Figure4Buggy;
  S.Intended = workload::Figure4Fixed;
  S.ExpectUnit = "decrement";
  return S;
}

/// Passes for a run of \p Seconds, given the nominal seconds one pass
/// takes on a 4-vCPU host. A function of the arguments only, so both
/// commits of a comparison time exactly the same sessions.
unsigned passesFor(unsigned Seconds, double PassSeconds) {
  unsigned P = static_cast<unsigned>(Seconds / PassSeconds + 0.5);
  return std::clamp(P, 2u, 256u);
}

/// deep_chain: long chains on warm caches, so a session is its debug
/// phase. 51 subjects, each run twice a pass: 102 sessions for the pooled
/// percentiles, while the warm-up (one session per subject) stays half a
/// pass. More short chains than long ones keeps a pass affordable.
void deepChain(Rng &R, unsigned Seconds, Workload &W) {
  W.M = Mode::WarmSerial;
  const std::pair<unsigned, unsigned> Sizes[] = {{128, 27}, {256, 18},
                                                 {512, 6}};
  for (auto [N, Count] : Sizes)
    for (unsigned Bug : systematic(R, N, Count))
      for (int Copy = 0; Copy < 2; ++Copy)
        W.Sessions.push_back(chain(N, Bug));
  R.shuffle(W.Sessions);
  W.Passes = passesFor(Seconds, 1.6);
}

/// \p S under program name suffix \p K, in the buggy and the intended
/// text alike: the same routines, work and dialogue, but another
/// fingerprint, so a fresh context misses on every copy.
Subject renamed(Subject S, unsigned K) {
  const std::string Suffix = std::to_string(K);
  for (std::string *Text : {&S.Source, &S.Intended})
    Text->insert(Text->find(';', Text->find("program ")), Suffix);
  S.Name.append(1, '#').append(Suffix);
  return S;
}

/// cold_mix: every session prepares everything anew, so the frontend,
/// transform, SDG, compile and first slices dominate. The weights: random
/// programs keep the largest share (180 of 420) because they alone vary
/// with the seed and span the most shapes; every other family gets at
/// least a tenth of the sessions, enough to fill the tail beyond p90 on its
/// own, so a regression in the layer it loads (summary edges for the mesh,
/// the wide SDG) moves a percentile. Payroll, the only family with T-GEN,
/// gets the most of those (80), although its suite is too small a part of
/// a session to move a percentile by itself. Families with one text per
/// shape repeat it under new program names.
void coldMix(Rng &R, unsigned Seconds, Workload &W) {
  W.M = Mode::ColdSerial;
  // Every (routines, statements, gotos) shape of the grid appears three
  // times; the seed picks only the generator's own seed, so the mix of
  // program sizes is the same for every seed.
  for (unsigned I = 0; I < 180; ++I) {
    workload::SyntheticOptions O;
    O.Seed = static_cast<uint32_t>(R.next());
    O.NumRoutines = 4 + I % 6;
    O.StmtsPerRoutine = 3 + (I / 6) % 5;
    O.NumGlobals = 2 + I % 3;
    O.UseLoops = true;
    O.UseGotos = (I / 30) % 2 == 1;
    Subject S = fromPair("random", std::to_string(O.Seed),
                         workload::randomProgram(O));
    S.ExpectUnit.clear(); // the planted bug may not manifest
    W.Sessions.push_back(std::move(S));
  }
  // One size from each of 60 strata of [8, 87]: distinct, so no two
  // sessions of a pass share a cache entry.
  for (unsigned N : systematic(R, 80, 60)) {
    N += 7;
    W.Sessions.push_back(fromPair("wide", std::to_string(N),
                                  workload::wideIrrelevantProgram(N)));
  }
  // Meshes from 2x2 to 4x5, five copies of each: a 6x8 mesh already takes
  // over a second cold.
  for (unsigned L = 2; L <= 4; ++L)
    for (unsigned Wd = 2; Wd <= 5; ++Wd) {
      Subject Mesh =
          fromPair("mesh", std::to_string(L) + "x" + std::to_string(Wd),
                   workload::summaryMeshProgram(L, Wd));
      for (unsigned K = 0; K < 5; ++K)
        W.Sessions.push_back(renamed(Mesh, K));
    }
  for (unsigned K = 0; K < 40; ++K)
    W.Sessions.push_back(renamed(figure4(), K));
  // The payroll variants carry the T-GEN suite of the routine they did
  // *not* break, as examples/payroll_demo.cpp does for the tax bug.
  Subject Tax;
  Tax.Family = "payroll";
  Tax.Name = "payroll-tax";
  Tax.Source = workload::PayrollTaxBug;
  Tax.Intended = workload::PayrollCorrect;
  Tax.ExpectUnit = "taxfor";
  Tax.Spec = workload::OvertimeSpec;
  Subject Ot = Tax;
  Ot.Name = "payroll-overtime";
  Ot.Source = workload::PayrollOvertimeBug;
  Ot.ExpectUnit = "overtimepay";
  Ot.Spec = workload::TaxforSpec;
  for (unsigned K = 0; K < 40; ++K) {
    W.Sessions.push_back(renamed(Tax, K));
    W.Sessions.push_back(renamed(Ot, K));
  }
  R.shuffle(W.Sessions);
  W.Passes = passesFor(Seconds, 1.0);
  W.SetupRepeats = 5;
}

/// batch_warm: ~1k short sessions over 128 warm subjects, so per-session
/// fixed costs and the pool, not long searches, set the pace.
void batchWarm(Rng &R, unsigned Seconds, Workload &W) {
  W.M = Mode::WarmBatch;
  // 128 subjects on seeded grids: 80 chains, two of each length in
  // [8, 47], each with its bug at the next fraction of a low-discrepancy
  // sequence; every tree depth from 3 to 6; wide programs of every size in
  // [4, 46]. Many small steps of size keep the batch's percentiles smooth
  // across seeds.
  std::vector<Subject> Distinct;
  double Frac = R.unit();
  for (unsigned N : systematic(R, 40, 80)) {
    N += 7;
    Frac += 0.6180339887498949;
    Frac -= static_cast<unsigned>(Frac);
    Distinct.push_back(chain(N, 1 + static_cast<unsigned>(Frac * N)));
  }
  for (unsigned D = 3; D <= 6; ++D)
    Distinct.push_back(
        fromPair("tree", std::to_string(D), workload::treeProgram(D)));
  for (unsigned N = 4; N <= 46; ++N)
    Distinct.push_back(fromPair("wide", std::to_string(N),
                                workload::wideIrrelevantProgram(N)));
  Distinct.push_back(figure4());
  // Every distinct subject equally often, in seeded order.
  const unsigned Batch = 1024;
  for (unsigned I = 0; I < Batch; ++I)
    W.Sessions.push_back(Distinct[I % Distinct.size()]);
  R.shuffle(W.Sessions);
  W.Passes = passesFor(Seconds, 0.16);
  W.SetupRepeats = 7;
}

} // namespace

bool perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                             unsigned Seconds, Workload &Out) {
  Out = Workload();
  Out.Name = Name;
  // Each workload draws from its own stream of the seed (FNV-1a of the
  // name, so the stream is the same on every platform).
  uint64_t Stream = 0xcbf29ce484222325ULL;
  for (char C : Name)
    Stream = (Stream ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  Rng R(Seed * 0x100000001b3ULL ^ Stream);
  if (Name == "deep_chain")
    deepChain(R, Seconds, Out);
  else if (Name == "cold_mix")
    coldMix(R, Seconds, Out);
  else if (Name == "batch_warm")
    batchWarm(R, Seconds, Out);
  else
    return false;
  return true;
}
