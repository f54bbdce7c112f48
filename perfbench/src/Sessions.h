//===- Sessions.h - Timed localization sessions -----------------*- C++ -*-===//
///
/// \file
/// One localization session, timed from outside the library: source text
/// in, BugReport out, with the simulated user wrapped in a decorator that
/// reads the clock twice per question. Also the in-memory span log the
/// traced run records around each public call it makes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SESSIONS_H
#define PERFBENCH_SESSIONS_H

#include "Subjects.h"

#include "core/GADT.h"
#include "core/ReferenceOracle.h"
#include "runtime/RuntimeContext.h"
#include "tgen/FrameGen.h"
#include "tgen/TestSpec.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t nowNs();

/// The user-oracle decorator. Appends (question in, answer out) clock reads
/// to \p Marks; when \p EndNs is given, the destructor stamps it, which is
/// how a session run inside the library (runtime::runSession) reports when
/// its BugReport was out.
class TimedUser : public gadt::core::Oracle {
public:
  TimedUser(const gadt::pascal::Program &Intended, std::vector<uint64_t> &Marks,
            uint64_t *EndNs = nullptr)
      : Inner(Intended), Marks(Marks), EndNs(EndNs) {}
  ~TimedUser() override;
  TimedUser(const TimedUser &) = delete;
  TimedUser &operator=(const TimedUser &) = delete;

  gadt::core::Judgement judge(const gadt::trace::ExecNode &N) override;

private:
  gadt::core::IntendedProgramOracle Inner;
  std::vector<uint64_t> &Marks;
  uint64_t *EndNs;
};

/// A T-GEN specification parsed once, with its frames.
struct SpecBundle {
  std::shared_ptr<const gadt::tgen::TestSpec> Spec;
  gadt::tgen::FrameSet Frames;
};

/// What every session of a workload shares, built during set-up: the
/// parsed intended programs and T-GEN specifications.
struct SetupData {
  std::map<std::string, std::shared_ptr<const gadt::pascal::Program>> Intended;
  std::map<const char *, SpecBundle> Specs;

  const gadt::pascal::Program &intendedFor(const Subject &S) const {
    return *Intended.at(S.Intended);
  }
};

/// Parses every intended program and specification of \p Sessions.
/// Returns false (with \p Error set) when one does not compile.
bool buildSetupData(const std::vector<Subject> &Sessions, SetupData &Out,
                    std::string &Error);

/// Runs the T-GEN suite of \p S's specification against \p Subject,
/// judging each case by the intended program, as examples/payroll_demo.cpp
/// does.
std::shared_ptr<const gadt::tgen::TestReportDB>
runSuite(const gadt::pascal::Program &Subject, const SpecBundle &Spec,
         const gadt::pascal::Program &Intended);

/// The observable outcome of one session: the report, the dialogue and
/// the counts that must repeat exactly.
struct Outcome {
  bool Ok = false; ///< prepared, ran, and produced a report
  std::string Text; ///< canonical rendering, compared byte for byte
  std::string Unit;
  unsigned UserQueries = 0, OracleCalls = 0, MemoHits = 0, TreeNodes = 0,
           NodesPruned = 0;
};

/// Renders a report plus its dialogue the way Outcome::Text compares them.
std::string outcomeText(const gadt::core::BugReport &R,
                        const gadt::core::SessionStats &S);

/// Clock reads of one session.
struct Timing {
  uint64_t StartNs = 0; ///< source text in
  uint64_t EndNs = 0;   ///< BugReport out
  std::vector<uint64_t> Marks; ///< question in, answer out, ...
  std::thread::id Worker; ///< the pool thread that ran it (batches)
};

/// An in-memory span log: name, start, end, parent and session id per span,
/// written out as JSON lines when the benchmark ends.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs, EndNs;
    int Parent;
    unsigned Session;
  };

  int open(const char *Name, int Parent, unsigned Session);
  /// Closes span \p I and returns its duration in nanoseconds.
  uint64_t close(int I);
  const std::vector<Span> &spans() const { return Spans; }
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// Where the traced pass records a session's own top-level calls.
struct SessionTrace {
  SpanLog *Log = nullptr;
  unsigned Session = 0;
  int Root = -1; ///< the session span
  uint64_t PrepareNs = 0; ///< the session's RuntimeContext::prepare call
};

/// One serial session against \p Ctx: T-GEN suite (when the subject has a
/// specification), RuntimeContext::prepare, GADTSession construction and
/// debug() with the timed user. \p Trace, when set, records the session's
/// top-level calls as spans.
Outcome runSerial(gadt::runtime::RuntimeContext &Ctx, const Subject &S,
                  const SetupData &Setup, Timing &T,
                  SessionTrace *Trace = nullptr);

/// The same session as a plain GADTSession with no RuntimeContext — the
/// reference randomProgram subjects are checked against.
Outcome runPlain(const Subject &S, const SetupData &Setup);

/// The options every session uses: transformation on, static slicing,
/// top-down search.
gadt::core::GADTOptions sessionOptions();

} // namespace perfbench

#endif // PERFBENCH_SESSIONS_H
