#pragma once
// NameIndex: the name -> dense id table behind Circuit's node and device
// lookups.
//
// Open addressing with linear probing over a power-of-two slot array kept
// at most half full. A slot holds only a 32-bit hash and the id; the names
// themselves stay with their owner (the circuit's node-name table, each
// device's name), which the caller exposes to probe() as `name_of(id)`.
// Ids are assigned by the owner in first-appearance order, so the hash
// decides where a slot sits but never which id a name gets.
//
// One probe() both looks a name up and, when it is absent, finds the slot
// that claim() fills: get-or-create and insert-unless-duplicate cost one
// walk of the probe sequence.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace icvbe::spice {

class NameIndex {
 public:
  static constexpr int kAbsent = -1;

  /// Outcome of probe(): the id stored under the name, or kAbsent plus the
  /// free slot a following claim() fills.
  struct Probe {
    int id = kAbsent;
    std::uint32_t hash = 0;
    std::size_t slot = 0;
  };

  /// Look `name` up; `name_of(id)` must return the name stored for `id`.
  template <typename NameOf>
  [[nodiscard]] Probe probe(std::string_view name,
                            const NameOf& name_of) const {
    Probe p;
    p.hash = hash(name);
    if (slots_.empty()) return p;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(p.hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kAbsent) {
        p.slot = i;
        return p;
      }
      if (s.hash == p.hash && std::string_view(name_of(s.id)) == name) {
        p.id = s.id;
        return p;
      }
    }
  }

  /// Store `id` under the name of `p`, the latest probe() of this index,
  /// which found the name absent.
  void claim(const Probe& p, int id) {
    std::size_t slot = p.slot;
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      slot = free_slot(p.hash);
    }
    slots_[slot] = Slot{p.hash, id};
    ++size_;
  }

 private:
  struct Slot {
    std::uint32_t hash;
    int id;
  };

  /// FNV-1a; the home slot takes the top bits of a multiplicative mix, so
  /// sequential names ("n1", "n2", ...) spread over the whole table.
  static std::uint32_t hash(std::string_view name) noexcept {
    std::uint32_t h = 2166136261u;
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    }
    return h;
  }

  [[nodiscard]] std::size_t home(std::uint32_t h) const noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{h} * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
  }

  [[nodiscard]] std::size_t free_slot(std::uint32_t h) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(h);
    while (slots_[i].id != kAbsent) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? std::size_t{16} : 2 * slots_.size(),
                          Slot{0, kAbsent});
    old.swap(slots_);
    bits_ = 0;
    while ((std::size_t{1} << bits_) < slots_.size()) ++bits_;
    for (const Slot& s : old) {
      if (s.id != kAbsent) slots_[free_slot(s.hash)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned bits_ = 0;  ///< log2(slots_.size())
};

}  // namespace icvbe::spice
