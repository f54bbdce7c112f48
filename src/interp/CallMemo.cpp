//===- CallMemo.cpp - Outcomes of self-contained routine calls ------------===//

#include "interp/CallMemo.h"

#include <algorithm>
#include <cstring>
#include <utility>

using namespace gadt;
using namespace gadt::interp;

// Value encoding: a header word (kind in bits 0-7, a boolean's value in
// bit 8, an array's element count from bit 16), then the payload: an
// integer's value, or an array's bounds and elements.

namespace {

constexpr unsigned CountShift = 16;

uint64_t header(Value::Kind K) { return static_cast<uint64_t>(K); }

} // namespace

CallMemo::Buffers &CallMemo::spare() {
  thread_local Buffers Spare;
  return Spare;
}

CallMemo::~CallMemo() {
  // Keep one set of buffers per thread, and none from an outsized memo.
  Buffers &S = spare();
  if (B.Words.capacity() > S.Words.capacity() &&
      B.Words.capacity() <= MaxWords / 16) {
    B.Pending.clear();
    B.Words.clear();
    B.Entries.clear();
    B.Table.clear();
    std::swap(S, B);
  }
}

void CallMemo::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  std::swap(B, spare());
  B.Pending.reserve(256);
  B.Words.reserve(1024);
  B.Entries.reserve(64);
}

bool CallMemo::pushPending(const Value &V) {
  if (!V.deps().empty())
    return false;
  switch (V.kind()) {
  case Value::Kind::Unset:
    B.Pending.push_back(header(Value::Kind::Unset));
    return true;
  case Value::Kind::Int:
    B.Pending.push_back(header(Value::Kind::Int));
    B.Pending.push_back(static_cast<uint64_t>(V.asInt()));
    return true;
  case Value::Kind::Bool:
    B.Pending.push_back(header(Value::Kind::Bool) |
                      (static_cast<uint64_t>(V.asBool()) << 8));
    return true;
  case Value::Kind::Array: {
    const ArrayVal &A = V.asArray();
    B.Pending.push_back(header(Value::Kind::Array) |
                      (static_cast<uint64_t>(A.Elems.size()) << CountShift));
    B.Pending.push_back(static_cast<uint64_t>(A.Lo));
    B.Pending.push_back(static_cast<uint64_t>(A.Hi));
    for (int64_t E : A.Elems)
      B.Pending.push_back(static_cast<uint64_t>(E));
    return true;
  }
  case Value::Kind::Str:
    return false;
  }
  return false;
}

Value CallMemo::decode(const uint64_t *&P) {
  uint64_t H = *P++;
  switch (static_cast<Value::Kind>(H & 0xFF)) {
  case Value::Kind::Int:
    return Value::makeInt(static_cast<int64_t>(*P++));
  case Value::Kind::Bool:
    return Value::makeBool((H >> 8) & 1);
  case Value::Kind::Array: {
    ArrayVal A;
    A.Lo = static_cast<int64_t>(*P++);
    A.Hi = static_cast<int64_t>(*P++);
    size_t N = static_cast<size_t>(H >> CountShift);
    A.Elems.assign(reinterpret_cast<const int64_t *>(P),
                   reinterpret_cast<const int64_t *>(P) + N);
    P += N;
    return Value::makeArray(std::move(A));
  }
  default:
    return Value();
  }
}

void CallMemo::skip(const uint64_t *&P) {
  uint64_t H = *P++;
  switch (static_cast<Value::Kind>(H & 0xFF)) {
  case Value::Kind::Int:
    ++P;
    return;
  case Value::Kind::Array:
    P += 2 + (H >> CountShift);
    return;
  default:
    return;
  }
}

uint64_t CallMemo::hash(const pascal::RoutineDecl *R, const uint64_t *Key,
                        size_t Len) const {
  // splitmix64's finalizer over each word: every key bit reaches the
  // table index bits.
  auto Mix = [](uint64_t X) {
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
    return X ^ (X >> 31);
  };
  uint64_t H = Mix(reinterpret_cast<uintptr_t>(R));
  for (size_t I = 0; I != Len; ++I)
    H = Mix(H ^ Key[I]);
  return H;
}

size_t CallMemo::probe(const pascal::RoutineDecl *R, uint64_t H,
                       const uint64_t *Key, size_t Len) const {
  size_t Mask = B.Table.size() - 1;
  for (size_t S = H & Mask;; S = (S + 1) & Mask) {
    uint32_t Slot = B.Table[S];
    if (!Slot)
      return S;
    const Entry &E = B.Entries[Slot - 1];
    if (E.Hash == H && E.R == R && E.KeyLen == Len &&
        std::memcmp(B.Words.data() + E.Start, Key, Len * sizeof(uint64_t)) == 0)
      return S;
  }
}

const uint64_t *CallMemo::find(const pascal::RoutineDecl *R,
                               size_t KeyStart) const {
  if (B.Entries.empty())
    return nullptr;
  const uint64_t *Key = B.Pending.data() + KeyStart;
  size_t Len = B.Pending.size() - KeyStart;
  uint32_t Slot = B.Table[probe(R, hash(R, Key, Len), Key, Len)];
  if (!Slot)
    return nullptr;
  const Entry &E = B.Entries[Slot - 1];
  return B.Words.data() + E.Start + E.KeyLen;
}

bool CallMemo::commit(const pascal::RoutineDecl *R, size_t KeyStart,
                      size_t OutStart) {
  size_t Len = B.Pending.size() - KeyStart;
  if (B.Entries.size() == MaxEntries || B.Words.size() + Len > MaxWords)
    return false;
  if (B.Table.size() < 2 * (B.Entries.size() + 1)) {
    // Grow (first use: 128 slots) and reinsert from the entries, which
    // keep their hashes.
    B.Table.assign(std::max<size_t>(128, B.Table.size() * 2), 0);
    size_t Mask = B.Table.size() - 1;
    for (uint32_t I = 0; I != B.Entries.size(); ++I) {
      size_t S = B.Entries[I].Hash & Mask;
      while (B.Table[S])
        S = (S + 1) & Mask;
      B.Table[S] = I + 1;
    }
  }
  const uint64_t *Key = B.Pending.data() + KeyStart;
  size_t KeyLen = OutStart - KeyStart;
  uint64_t H = hash(R, Key, KeyLen);
  size_t S = probe(R, H, Key, KeyLen);
  if (B.Table[S])
    return false;
  B.Entries.push_back({R, H, static_cast<uint32_t>(B.Words.size()),
                     static_cast<uint32_t>(KeyLen)});
  B.Words.insert(B.Words.end(), B.Pending.begin() + KeyStart, B.Pending.end());
  B.Table[S] = static_cast<uint32_t>(B.Entries.size());
  return true;
}
