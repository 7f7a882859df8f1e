// PartitionRunBuffer — the ordered buffer that exploits Property 2.
//
// Per-partition timestamp monotonicity means the op stream arriving at
// Eunomia is not an arbitrary key sequence: it is P sorted runs, one per
// partition. A comparison tree (the paper's §6 red-black tree) re-derives
// the global order on every insert at O(log n) with pointer-chasing and
// rebalancing; this buffer instead appends each op to its partition's
// growable ring buffer — O(1) amortized, no rebalancing, cache-linear
// memory — and materializes the global (ts, partition) order only at
// extraction time with a tournament-tree k-way merge over the P run heads —
// O(log P) per emitted op, on an index array that fits in cache (see
// tournament_tree.h for why the winner variant of the loser tree is used).
//
// EunomiaCore holds this buffer. The §6 trees (RbTreeBuffer, AvlBuffer, in
// tests/reference/ with the trees they wrap) are reference models behind
// the same concept: ablation A1 (bench/ablation_ordered_buffer.cc)
// reproduces the §6 design choice with them, and
// tests/ordbuf_equivalence_test.cc pins the core's emission against a
// stabilizer built over them. No production target includes them.
//
// OrderedBuffer concept (all three implementations satisfy it):
//
//   // Tracks partitions [first_partition, first_partition + num_partitions);
//   // keys carry global partition ids.
//   Buffer(std::uint32_t num_partitions, std::uint32_t first_partition);
//
//   // Adds one element. Precondition (Property 2, enforced by EunomiaCore
//   // before the buffer is reached and asserted here): key is strictly
//   // greater than every key previously appended for key.partition.
//   void Append(const OpOrderKey& key, V value);
//
//   // Removes every element with key <= bound and hands each to
//   // emit(const OpOrderKey&, V&&) in ascending global (ts, partition)
//   // order. Returns the number of elements emitted.
//   template <typename Emit>
//   std::size_t ExtractUpTo(const OpOrderKey& bound, Emit&& emit);
//
//   std::size_t size() const;
//   bool empty() const;
//
// The emit-callback form of ExtractUpTo is deliberate: the caller writes
// extracted ops straight into its destination (EunomiaCore appends to the
// sink vector) instead of staging (key, value) pairs in a scratch buffer.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/eunomia/op.h"
#include "src/ordbuf/tournament_tree.h"

namespace eunomia::ordbuf {

template <typename V>
class PartitionRunBuffer {
 public:
  PartitionRunBuffer(std::uint32_t num_partitions, std::uint32_t first_partition = 0)
      : first_partition_(first_partition),
        runs_(num_partitions == 0 ? 1 : num_partitions),
        merge_(static_cast<std::uint32_t>(runs_.size())) {
    merge_.Rebuild(HeadKeyFn{this});
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Append(const OpOrderKey& key, V value) {
    const std::uint32_t r = key.partition - first_partition_;
    assert(r < runs_.size());
    Run& run = runs_[r];
    assert((run.count == 0 || run.Back().first < key) &&
           "per-partition keys must be strictly increasing (Property 2)");
    const bool was_empty = run.count == 0;
    run.Push(Entry{key, std::move(value)});
    ++size_;
    if (was_empty) {
      // The run's head key changed (+inf -> key); replay its tournament
      // path. Appends to a non-empty run leave the head untouched.
      merge_.Update(r, HeadKeyFn{this});
    }
  }

  template <typename Emit>
  std::size_t ExtractUpTo(const OpOrderKey& bound, Emit&& emit) {
    std::size_t extracted = 0;
    const HeadKeyFn key_of{this};
    while (size_ > 0) {
      const std::uint32_t w = merge_.Winner();
      Run& run = runs_[w];
      assert(run.count > 0 && "winner of a non-empty buffer has a head");
      if (bound < run.Front().first) {
        break;  // global minimum already beyond the bound
      }
      Entry entry = run.Pop();
      --size_;
      ++extracted;
      merge_.Update(w, key_of);
      emit(entry.first, std::move(entry.second));
    }
    return extracted;
  }

 private:
  using Entry = std::pair<OpOrderKey, V>;

  // Growable ring buffer: O(1) amortized push at the tail, O(1) pop at the
  // head, popped slots reused in place. Capacity is a power of two so the
  // wraparound is a mask.
  struct Run {
    std::vector<Entry> slots;
    std::size_t head = 0;
    std::size_t count = 0;

    const Entry& Front() const { return slots[head]; }
    const Entry& Back() const {
      return slots[(head + count - 1) & (slots.size() - 1)];
    }

    void Push(Entry entry) {
      if (count == slots.size()) {
        Grow();
      }
      slots[(head + count) & (slots.size() - 1)] = std::move(entry);
      ++count;
    }

    Entry Pop() {
      Entry entry = std::move(slots[head]);
      head = (head + 1) & (slots.size() - 1);
      --count;
      return entry;
    }

    void Grow() {
      const std::size_t old_cap = slots.size();
      std::vector<Entry> bigger(old_cap == 0 ? 8 : old_cap * 2);
      for (std::size_t i = 0; i < count; ++i) {
        bigger[i] = std::move(slots[(head + i) & (old_cap - 1)]);
      }
      slots.swap(bigger);
      head = 0;
    }
  };

  // Head-key accessor for the tournament. Padding leaves (run index beyond
  // the partition count) and drained runs report nullptr == +infinity.
  struct HeadKeyFn {
    const PartitionRunBuffer* buf;
    const OpOrderKey* operator()(std::uint32_t r) const {
      if (r >= buf->runs_.size() || buf->runs_[r].count == 0) {
        return nullptr;
      }
      return &buf->runs_[r].Front().first;
    }
  };

  std::uint32_t first_partition_;
  std::vector<Run> runs_;
  MergeTournament merge_;
  std::size_t size_ = 0;
};

}  // namespace eunomia::ordbuf
