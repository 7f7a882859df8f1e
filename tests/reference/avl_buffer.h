// AvlBuffer — the §6 also-ran self-balancing tree behind the OrderedBuffer
// concept (src/ordbuf/partition_run_buffer.h), kept so ablation A1 can
// reproduce the paper's red-black-vs-AVL design-choice measurement on the
// real access pattern. AvlTree has no hinted insert; every append pays the
// root descent.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "src/eunomia/op.h"
#include "tests/reference/avl_tree.h"

namespace eunomia::ordbuf {

template <typename V>
class AvlBuffer {
 public:
  AvlBuffer(std::uint32_t num_partitions, std::uint32_t first_partition = 0) {
    (void)num_partitions;  // the tree layout is partition-oblivious
    (void)first_partition;
  }

  std::size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  void Append(const OpOrderKey& key, V value) {
    const bool inserted = tree_.Insert(key, std::move(value));
    assert(inserted && "(ts, partition) keys must be unique");
    (void)inserted;
  }

  template <typename Emit>
  std::size_t ExtractUpTo(const OpOrderKey& bound, Emit&& emit) {
    return tree_.ExtractUpToEmit(bound, std::forward<Emit>(emit));
  }

 private:
  AvlTree<OpOrderKey, V> tree_;
};

}  // namespace eunomia::ordbuf
