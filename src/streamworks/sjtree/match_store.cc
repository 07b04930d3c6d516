#include "streamworks/sjtree/match_store.h"

#include <algorithm>

#include "streamworks/common/hash.h"

namespace streamworks {
namespace {

/// Table size for `num_keys` chains at a load factor of at most 1/2.
size_t TableSizeFor(size_t num_keys) {
  if (num_keys == 0) return 0;
  size_t n = 16;
  while (n < num_keys * 2) n *= 2;
  return n;
}

}  // namespace

MatchStore::MatchStore(Bitset64 vertices, Bitset64 edges)
    : vertices_(vertices),
      edges_(edges),
      num_vertices_(static_cast<size_t>(vertices.Count())),
      num_edges_(static_cast<size_t>(edges.Count())) {}

size_t MatchStore::HomeSlot(uint64_t key, size_t num_slots) {
  return Mix64(key) & (num_slots - 1);
}

void MatchStore::Insert(uint64_t key, const Match& m) {
  SW_DCHECK(m.bound_vertices() == vertices_ && m.bound_edges() == edges_)
      << "match shape differs from the store's rows";
  uint32_t r;
  if (free_head_ != kNoRow) {
    r = free_head_;
    free_head_ = next_[r];
  } else {
    SW_CHECK_LT(min_ts_.size(), static_cast<size_t>(kFreeRow));
    r = static_cast<uint32_t>(min_ts_.size());
    vertex_cols_.resize(vertex_cols_.size() + num_vertices_);
    edge_cols_.resize(edge_cols_.size() + num_edges_);
    ts_cols_.resize(ts_cols_.size() + num_edges_);
    min_ts_.push_back(kMaxTimestamp);
    key_.push_back(0);
    next_.push_back(kNoRow);
    prev_.push_back(kNoRow);
  }
  VertexId* vertex = &vertex_cols_[r * num_vertices_];
  for (int qv : vertices_) {
    *vertex++ = m.vertex(static_cast<QueryVertexId>(qv));
  }
  EdgeId* edge = &edge_cols_[r * num_edges_];
  Timestamp* ts = &ts_cols_[r * num_edges_];
  for (int qe : edges_) {
    *edge++ = m.edge(static_cast<QueryEdgeId>(qe));
    *ts++ = m.edge_ts(static_cast<QueryEdgeId>(qe));
  }
  min_ts_[r] = m.min_ts();
  key_[r] = key;

  Slot& slot = slots_[FindOrAddSlot(key)];
  next_[r] = slot.head;
  prev_[r] = kNoRow;
  if (slot.head != kNoRow) prev_[slot.head] = r;
  slot.head = r;

  ++live_;
  ++total_inserted_;
  peak_size_ = std::max(peak_size_, live_);
}

void MatchStore::Expire(Timestamp cutoff) {
  for (uint32_t r = 0; r < min_ts_.size(); ++r) {
    if (min_ts_[r] >= cutoff) continue;  // live, or a free row
    const size_t slot = prev_[r] == kNoRow ? FindSlot(key_[r]) : kNoSlot;
    Unlink(slot, r);
    FreeRow(r);
    if (slot != kNoSlot && slots_[slot].head == kNoRow) EraseSlot(slot);
  }
  if (live_ * 4 < row_capacity()) Compact();
}

size_t MatchStore::FindSlot(uint64_t key) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(key, slots_.size());; i = (i + 1) & mask) {
    if (slots_[i].head == kNoRow) return kNoSlot;
    if (slots_[i].key == key) return i;
  }
}

size_t MatchStore::FindOrAddSlot(uint64_t key) {
  if ((num_keys_ + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(key, slots_.size());
  for (; slots_[i].head != kNoRow; i = (i + 1) & mask) {
    if (slots_[i].key == key) return i;
  }
  slots_[i].key = key;
  ++num_keys_;
  return i;
}

void MatchStore::EraseSlot(size_t slot) {
  // Linear-probing deletion without tombstones: pull back every later
  // entry of the cluster whose home does not lie in (slot, j].
  const size_t mask = slots_.size() - 1;
  for (size_t j = (slot + 1) & mask; slots_[j].head != kNoRow;
       j = (j + 1) & mask) {
    const size_t home = HomeSlot(slots_[j].key, slots_.size());
    const bool stays = slot <= j ? (slot < home && home <= j)
                                 : (slot < home || home <= j);
    if (stays) continue;
    slots_[slot] = slots_[j];
    slot = j;
  }
  slots_[slot] = Slot{};
  --num_keys_;
}

void MatchStore::Rehash(size_t num_slots) {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(num_slots);
  if (num_slots == 0) return;
  const size_t mask = num_slots - 1;
  for (const Slot& s : old) {
    if (s.head == kNoRow) continue;
    size_t i = HomeSlot(s.key, num_slots);
    while (slots_[i].head != kNoRow) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void MatchStore::Unlink(size_t slot, uint32_t r) {
  const uint32_t prev = prev_[r];
  const uint32_t next = next_[r];
  if (prev == kNoRow) {
    slots_[slot].head = next;
  } else {
    next_[prev] = next;
  }
  if (next != kNoRow) prev_[next] = prev;
}

void MatchStore::FreeRow(uint32_t r) {
  min_ts_[r] = kMaxTimestamp;
  prev_[r] = kFreeRow;
  next_[r] = free_head_;
  free_head_ = r;
  --live_;
  ++total_expired_;
}

void MatchStore::Compact() {
  const size_t rows = row_capacity();
  std::vector<uint32_t> remap(rows, kNoRow);
  uint32_t live = 0;
  for (uint32_t r = 0; r < rows; ++r) {
    if (prev_[r] != kFreeRow) remap[r] = live++;
  }
  auto moved = [&](uint32_t r) { return r >= kFreeRow ? r : remap[r]; };
  // remap[r] <= r, so moving rows forward in order never overwrites a row
  // that is still to be moved.
  for (uint32_t r = 0; r < rows; ++r) {
    const uint32_t to = remap[r];
    if (to == kNoRow) continue;
    std::copy_n(&vertex_cols_[r * num_vertices_], num_vertices_,
                &vertex_cols_[to * num_vertices_]);
    std::copy_n(&edge_cols_[r * num_edges_], num_edges_,
                &edge_cols_[to * num_edges_]);
    std::copy_n(&ts_cols_[r * num_edges_], num_edges_,
                &ts_cols_[to * num_edges_]);
    min_ts_[to] = min_ts_[r];
    key_[to] = key_[r];
    next_[to] = moved(next_[r]);
    prev_[to] = moved(prev_[r]);
  }
  auto shrink = [](auto& v, size_t n) {
    v.resize(n);
    v.shrink_to_fit();
  };
  shrink(vertex_cols_, live * num_vertices_);
  shrink(edge_cols_, live * num_edges_);
  shrink(ts_cols_, live * num_edges_);
  shrink(min_ts_, live);
  shrink(key_, live);
  shrink(next_, live);
  shrink(prev_, live);
  free_head_ = kNoRow;
  for (Slot& s : slots_) {
    if (s.head != kNoRow) s.head = remap[s.head];
  }
  Rehash(TableSizeFor(num_keys_));
}

}  // namespace streamworks
