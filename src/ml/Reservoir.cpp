//===- ml/Reservoir.cpp -----------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/Reservoir.h"

#include <algorithm>

using namespace pbt;
using namespace pbt::ml;

Reservoir::Reservoir(size_t Capacity) : Capacity(Capacity) {
  Items.reserve(Capacity);
}

void Reservoir::add(size_t Item) {
  if (Capacity == 0)
    return;
  ++Seen;
  if (Items.size() < Capacity) {
    Items.push_back(Item);
    return;
  }
  // Ring overwrite: the oldest item leaves, arrival order is recovered
  // by sample() from the cursor.
  Items[Next] = Item;
  Next = (Next + 1) % Capacity;
}

std::vector<size_t> Reservoir::sample() const {
  std::vector<size_t> Out;
  sampleInto(Out);
  return Out;
}

void Reservoir::sampleInto(std::vector<size_t> &Out) const {
  Out.clear();
  Out.reserve(Items.size());
  if (Items.size() < Capacity || Next == 0) {
    Out.insert(Out.end(), Items.begin(), Items.end());
    return;
  }
  // Unroll the ring so the caller sees oldest-to-newest arrival order.
  Out.insert(Out.end(), Items.begin() + static_cast<long>(Next), Items.end());
  Out.insert(Out.end(), Items.begin(), Items.begin() + static_cast<long>(Next));
}

size_t Reservoir::distinctCount() const {
  Scratch.assign(Items.begin(), Items.end());
  std::sort(Scratch.begin(), Scratch.end());
  return static_cast<size_t>(
      std::unique(Scratch.begin(), Scratch.end()) - Scratch.begin());
}

void Reservoir::reset() {
  Items.clear();
  Seen = 0;
  Next = 0;
}
