//===--- PtrIndex.h - Positions of distinct pointers by address -*- C++ -*-===//
//
// A sequence of distinct pointers plus an open-addressing table from each
// pointer to its position in the sequence. The IR verifier indexes a
// function's values and blocks with it, the mid-end's CFG snapshot its
// blocks and DCE its instructions: a lookup is one multiplicative hash and
// a short linear probe, with no sorting and no node allocation.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SUPPORT_PTRINDEX_H
#define MCC_SUPPORT_PTRINDEX_H

#include <bit>
#include <cstdint>
#include <vector>

namespace mcc {

template <typename T> class PtrIndex {
public:
  /// The position of a pointer that is not in the sequence.
  static constexpr unsigned None = ~0u;

  /// Makes room for \p N pointers without a rehash.
  void reserve(std::size_t N) {
    Keys.reserve(N);
    if (2 * N > Slots.size())
      rehash(std::bit_ceil(2 * N));
  }

  /// Appends \p P, which must not be in the sequence yet, and returns its
  /// position.
  unsigned push_back(T *P) {
    const auto K = static_cast<unsigned>(Keys.size());
    Keys.push_back(P);
    if (2 * Keys.size() > Slots.size())
      rehash(std::bit_ceil(2 * Keys.size()));
    else
      place(K);
    return K;
  }

  /// Position of \p P, or None.
  [[nodiscard]] unsigned find(const T *P) const {
    if (Slots.empty())
      return None;
    for (std::size_t S = slotOf(P);; S = (S + 1) & (Slots.size() - 1))
      if (Slots[S] == None || Keys[Slots[S]] == P)
        return Slots[S];
  }

  [[nodiscard]] std::size_t size() const { return Keys.size(); }
  [[nodiscard]] T *operator[](unsigned K) const { return Keys[K]; }

private:
  std::vector<T *> Keys;
  /// A power of two at least twice the key count; None marks an empty slot.
  std::vector<unsigned> Slots;

  [[nodiscard]] std::size_t slotOf(const T *P) const {
    // Fibonacci hashing of the address; the low bits are alignment.
    auto Key = reinterpret_cast<std::uintptr_t>(P) >> 4;
    return static_cast<std::size_t>(Key * 0x9e3779b97f4a7c15ULL >> 32) &
           (Slots.size() - 1);
  }
  void place(unsigned K) {
    std::size_t S = slotOf(Keys[K]);
    while (Slots[S] != None)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = K;
  }
  void rehash(std::size_t NumSlots) {
    Slots.assign(NumSlots, None);
    for (unsigned K = 0; K < Keys.size(); ++K)
      place(K);
  }
};

} // namespace mcc

#endif // MCC_SUPPORT_PTRINDEX_H
