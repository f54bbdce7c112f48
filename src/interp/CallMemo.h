//===- CallMemo.h - Outcomes of self-contained routine calls ----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's call memo. While Interpreter::callRoutine runs on the
/// bytecode tier, every call of a self-contained routine
/// (bytecode::CompiledRoutine::SelfContained) that completes without
/// failure is recorded here, keyed by the routine and its parameters'
/// entry values; a later callRoutine with the same key is answered from
/// the record and executes nothing. On a call chain, the first reference
/// run records every call below the queried one, so later questions about
/// those calls become lookups.
///
/// Storage is flat: keys and outcomes are encoded into one word vector
/// (a scalar costs two words instead of a 136-byte Value), entries index
/// into it, and an open-addressing table indexes the entries. Nothing is
/// allocated until the first recording, and a memo then takes over the
/// buffers the previous memo on its thread left behind, so a warm thread
/// records without allocating or touching fresh pages. The memo holds at most MaxEntries
/// calls and MaxWords words; once full it only serves.
///
/// This is an internal header of the interpreter (see ExecState.h).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_CALLMEMO_H
#define GADT_INTERP_CALLMEMO_H

#include "interp/Value.h"
#include "pascal/AST.h"

#include <cstdint>
#include <vector>

namespace gadt {
namespace interp {

class CallMemo {
public:
  /// The most calls one memo records.
  static constexpr uint32_t MaxEntries = 4096;
  /// The most encoded words (keys plus outcomes) one memo holds.
  static constexpr uint32_t MaxWords = 1u << 18;

  CallMemo() = default;
  /// Leaves the buffers' capacity to the next memo on this thread.
  ~CallMemo();
  CallMemo(const CallMemo &) = delete;
  CallMemo &operator=(const CallMemo &) = delete;

  bool empty() const { return B.Entries.empty(); }
  /// Readies the buffers for recording: on first use, adopts the capacity
  /// an earlier memo on this thread left behind, so a warm thread records
  /// into memory it already touched.
  void prepare();

  /// The pending words: the keys (and, just before a commit, the
  /// outcomes) of recorded calls still executing, stacked in unit order.
  size_t pendingSize() const { return B.Pending.size(); }
  void truncatePending(size_t N) { B.Pending.resize(N); }
  /// Appends the encoding of \p V to the pending words. Returns false,
  /// appending nothing, for a value the memo does not store: a string, or
  /// a value carrying dependences (an execution with dependence tracking
  /// off creates none, so such a value came from outside the run).
  bool pushPending(const Value &V);

  /// Records routine \p R with key pending[KeyStart, OutStart) and
  /// outcome pending[OutStart, end). Returns false when the key is
  /// already recorded or the memo is full.
  bool commit(const pascal::RoutineDecl *R, size_t KeyStart, size_t OutStart);
  /// The outcome words recorded for \p R with key pending[KeyStart, end),
  /// or null.
  const uint64_t *find(const pascal::RoutineDecl *R, size_t KeyStart) const;

  /// Decodes the value at \p P and advances \p P past it.
  static Value decode(const uint64_t *&P);
  /// Advances \p P past one encoded value.
  static void skip(const uint64_t *&P);

private:
  struct Entry {
    const pascal::RoutineDecl *R;
    uint64_t Hash;
    uint32_t Start;  ///< key words at Words[Start], outcome right after
    uint32_t KeyLen;
  };

  uint64_t hash(const pascal::RoutineDecl *R, const uint64_t *Key,
                size_t Len) const;
  /// The table slot holding \p R's entry for \p Key, or the empty slot
  /// where it would go.
  size_t probe(const pascal::RoutineDecl *R, uint64_t H, const uint64_t *Key,
               size_t Len) const;

  struct Buffers {
    std::vector<uint64_t> Pending;
    std::vector<uint64_t> Words;
    std::vector<Entry> Entries;
    /// Entry index + 1 per slot (0 = empty); size is a power of two kept
    /// at least twice the entry count.
    std::vector<uint32_t> Table;
  };
  /// This thread's buffers left by the last destroyed memo (cleared).
  static Buffers &spare();

  Buffers B;
  bool Prepared = false;
};

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_CALLMEMO_H
