//===- Subjects.h - Seeded session lists of the three workloads -*- C++ -*-===//
///
/// \file
/// Turns (workload, seed, seconds) into the fixed list of localization
/// sessions one pass times. Every text comes from the repository's
/// workload generators; the seed only chooses sizes, bug positions and
/// random-program seeds, so the same arguments always give the same
/// sessions. The system under test receives only the generated texts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUBJECTS_H
#define PERFBENCH_SUBJECTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One buggy program with everything a session over it needs.
struct Subject {
  std::string Name;     ///< e.g. "chain256@131"
  std::string Family;   ///< the generator, e.g. "chain", "payroll"
  std::string Source;   ///< the buggy program (what the user debugs)
  std::string Intended; ///< the fixed program the simulated user knows
  std::vector<int64_t> Input;
  /// The unit the generator planted the bug in. Empty for families whose
  /// bug may not manifest (randomProgram): those are checked against a
  /// plain, context-free GADTSession instead.
  std::string ExpectUnit;
  /// T-GEN specification whose report database is attached to the session
  /// (payroll only), and the routine it tests; null when none.
  const char *Spec = nullptr;
};

/// How a workload runs its session list.
enum class Mode {
  WarmSerial, ///< deep_chain: one warm RuntimeContext, sessions in turn
  ColdSerial, ///< cold_mix: a fresh RuntimeContext per pass
  WarmBatch,  ///< batch_warm: a BatchRunner at nproc workers
};

struct Workload {
  std::string Name;
  Mode M = Mode::WarmSerial;
  /// One pass, in order. Batch workloads list every request of the batch.
  std::vector<Subject> Sessions;
  /// Round-robin timed passes; each session keeps its fastest.
  unsigned Passes = 3;
  /// Times the set-up is repeated; setup_s reports the fastest.
  unsigned SetupRepeats = 3;
};

/// Builds workload \p Name for \p Seed. \p Seconds scales the number of
/// passes, never the sessions themselves. Returns false on an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, unsigned Seconds,
                  Workload &Out);

} // namespace perfbench

#endif // PERFBENCH_SUBJECTS_H
