// RbTreeBuffer — the paper's §6 red-black tree behind the OrderedBuffer
// concept (src/ordbuf/partition_run_buffer.h).
//
// Appends go through the hinted run-insert path with one persistent hint per
// partition: Property 2 makes each partition's stream an ascending run, so
// the previous insert for the same partition is almost always the in-order
// predecessor of the next one and the root descent is skipped. Hints are
// NodeRefs into the tree and are invalidated wholesale by extraction.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/eunomia/op.h"
#include "tests/reference/red_black_tree.h"

namespace eunomia::ordbuf {

template <typename V>
class RbTreeBuffer {
 public:
  RbTreeBuffer(std::uint32_t num_partitions, std::uint32_t first_partition = 0)
      : first_partition_(first_partition),
        hints_(num_partitions == 0 ? 1 : num_partitions, nullptr) {}

  std::size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  void Append(const OpOrderKey& key, V value) {
    const std::uint32_t r = key.partition - first_partition_;
    assert(r < hints_.size());
    hints_[r] = tree_.InsertHinted(key, std::move(value), hints_[r]);
    assert(hints_[r] != nullptr && "(ts, partition) keys must be unique");
  }

  template <typename Emit>
  std::size_t ExtractUpTo(const OpOrderKey& bound, Emit&& emit) {
    const std::size_t extracted =
        tree_.ExtractUpToEmit(bound, std::forward<Emit>(emit));
    if (extracted > 0) {
      // Erasure invalidates NodeRefs; restart every partition's run.
      hints_.assign(hints_.size(), nullptr);
    }
    return extracted;
  }

 private:
  std::uint32_t first_partition_;
  RedBlackTree<OpOrderKey, V> tree_;
  std::vector<typename RedBlackTree<OpOrderKey, V>::NodeRef> hints_;
};

}  // namespace eunomia::ordbuf
