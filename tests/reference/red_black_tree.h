// Red-black tree — the ordered buffer the paper's §6 puts at the core of
// the Eunomia service. Here it is a reference model: EunomiaCore holds a
// PartitionRunBuffer, and RbTreeBuffer (rbtree_buffer.h) wraps this tree
// for the ordered-buffer tests and ablation A1.
//
// The paper (§6) reports that Eunomia is implemented "using a red-black
// tree, a self-balancing binary search tree optimized for insertions and
// deletions, which guarantees logarithmic search, insert and delete cost,
// and linear in-order traversal cost, a critical operation for Eunomia",
// and that it outperformed AVL trees for this workload. We therefore
// implement the tree from scratch (CLRS-style, sentinel-based) rather than
// wrapping std::map, and expose the one bulk operation Eunomia needs:
// ExtractUpTo, which removes and returns, in order, every element whose key
// is <= a stability bound.
//
// Keys are unique. Not thread-safe.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace eunomia {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class RedBlackTree {
 private:
  enum class Color : unsigned char { kRed, kBlack };

  struct Node {
    Key key;
    Value value;
    Node* left;
    Node* right;
    Node* parent;
    Color color;
  };

 public:
  RedBlackTree() {
    nil_ = new Node{Key{}, Value{}, nullptr, nullptr, nullptr, Color::kBlack};
    nil_->left = nil_->right = nil_->parent = nil_;
    root_ = nil_;
  }

  RedBlackTree(const RedBlackTree&) = delete;
  RedBlackTree& operator=(const RedBlackTree&) = delete;

  RedBlackTree(RedBlackTree&& other) noexcept { MoveFrom(std::move(other)); }
  RedBlackTree& operator=(RedBlackTree&& other) noexcept {
    if (this != &other) {
      Clear();
      delete nil_;
      MoveFrom(std::move(other));
    }
    return *this;
  }

  ~RedBlackTree() {
    Clear();
    delete nil_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Opaque reference to a tree node, used as an insertion hint for run
  // inserts. Invalidated by any Erase / ExtractUpTo / Clear.
  using NodeRef = void*;

  // Inserts (key, value); returns false (and leaves the tree unchanged) if
  // the key is already present.
  bool Insert(const Key& key, Value value) {
    return InsertDescend(key, std::move(value)) != nullptr;
  }

  // Insert optimized for increasing runs — the shape of a Eunomia partition
  // batch. `hint` is the NodeRef returned by the previous insert of the run
  // (or nullptr to start one). When the hint is the new key's in-order
  // predecessor the attachment point is found without re-descending from the
  // root: O(1) for appends past the current maximum and for continuing a run
  // inside a gap. Any other case falls back to a normal root descent.
  // Returns the NodeRef of the inserted node, or nullptr if the key was a
  // duplicate.
  NodeRef InsertHinted(const Key& key, Value value, NodeRef hint) {
    Node* h = static_cast<Node*>(hint);
    if (h == nullptr || !cmp_(h->key, key)) {
      return InsertDescend(key, std::move(value));
    }
    if (h == rightmost_) {
      // Appending past the maximum: h->right is necessarily nil.
      return AttachChild(h, /*as_left=*/false, key, std::move(value));
    }
    if (h->right != nil_) {
      Node* succ = Minimum(h->right);
      if (cmp_(key, succ->key)) {
        return AttachChild(succ, /*as_left=*/true, key, std::move(value));
      }
      return InsertDescend(key, std::move(value));
    }
    // No right subtree: the successor is the lowest ancestor of which h lies
    // in the left subtree (O(1) when h is a left child, which is where run
    // inserts land).
    Node* a = h;
    Node* p = h->parent;
    while (p != nil_ && a == p->right) {
      a = p;
      p = p->parent;
    }
    if (p != nil_ && cmp_(key, p->key)) {
      return AttachChild(h, /*as_left=*/false, key, std::move(value));
    }
    return InsertDescend(key, std::move(value));
  }

  // Returns a pointer to the value for key, or nullptr.
  Value* Find(const Key& key) {
    Node* node = FindNode(key);
    return node == nil_ ? nullptr : &node->value;
  }
  const Value* Find(const Key& key) const {
    return const_cast<RedBlackTree*>(this)->Find(key);
  }

  bool Contains(const Key& key) const { return FindNode(key) != nil_; }

  // Removes key; returns false if absent.
  bool Erase(const Key& key) {
    Node* node = FindNode(key);
    if (node == nil_) {
      return false;
    }
    EraseNode(node);
    return true;
  }

  // Smallest key in the tree; requires !empty().
  const Key& MinKey() const {
    assert(!empty());
    return Minimum(root_)->key;
  }

  // The Eunomia stability operation: removes every element with key <= bound
  // and hands each to emit(const Key&, Value&&) in ascending key order.
  // Returns the number of elements extracted. O(k log n) for k extracted
  // elements. The callback form lets callers write extracted values straight
  // into their destination without staging (key, value) pairs.
  template <typename Emit>
  std::size_t ExtractUpToEmit(const Key& bound, Emit&& emit) {
    std::size_t extracted = 0;
    while (root_ != nil_) {
      Node* min = Minimum(root_);
      if (cmp_(bound, min->key)) {  // min > bound
        break;
      }
      emit(static_cast<const Key&>(min->key), std::move(min->value));
      EraseNode(min);
      ++extracted;
    }
    return extracted;
  }

  std::size_t ExtractUpTo(const Key& bound, std::vector<std::pair<Key, Value>>* out) {
    return ExtractUpToEmit(bound, [out](const Key& key, Value&& value) {
      out->emplace_back(key, std::move(value));
    });
  }

  // In-order visit of all elements (used by tests and the traversal bench).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachImpl(root_, fn);
  }

  void Clear() {
    ClearImpl(root_);
    root_ = nil_;
    size_ = 0;
    rightmost_ = nullptr;
  }

  // Verifies the red-black invariants; returns false on violation. Used by
  // the property tests after randomized insert/erase sequences.
  bool Validate() const {
    if (root_->color != Color::kBlack) {
      return false;
    }
    int black_height = -1;
    return ValidateImpl(root_, 0, &black_height);
  }

 private:
  void MoveFrom(RedBlackTree&& other) {
    nil_ = other.nil_;
    root_ = other.root_;
    size_ = other.size_;
    cmp_ = other.cmp_;
    rightmost_ = other.rightmost_;
    other.nil_ = new Node{Key{}, Value{}, nullptr, nullptr, nullptr, Color::kBlack};
    other.nil_->left = other.nil_->right = other.nil_->parent = other.nil_;
    other.root_ = other.nil_;
    other.size_ = 0;
    other.rightmost_ = nullptr;
  }

  // Classic top-down insert; returns the new node, or nullptr on duplicate.
  Node* InsertDescend(const Key& key, Value value) {
    Node* parent = nil_;
    Node* cur = root_;
    while (cur != nil_) {
      parent = cur;
      if (cmp_(key, cur->key)) {
        cur = cur->left;
      } else if (cmp_(cur->key, key)) {
        cur = cur->right;
      } else {
        return nullptr;
      }
    }
    if (parent == nil_) {
      return AttachChild(parent, /*as_left=*/false, key, std::move(value));
    }
    return AttachChild(parent, cmp_(key, parent->key), key, std::move(value));
  }

  // Links a fresh red node below `parent` (which must have a nil slot on the
  // chosen side; parent == nil_ means "as root") and restores the invariants.
  Node* AttachChild(Node* parent, bool as_left, const Key& key, Value value) {
    Node* node = new Node{key, std::move(value), nil_, nil_, parent, Color::kRed};
    if (parent == nil_) {
      root_ = node;
    } else if (as_left) {
      assert(parent->left == nil_);
      parent->left = node;
    } else {
      assert(parent->right == nil_);
      parent->right = node;
    }
    if (rightmost_ == nullptr || cmp_(rightmost_->key, key)) {
      rightmost_ = node;
    }
    ++size_;
    InsertFixup(node);
    return node;
  }

  Node* FindNode(const Key& key) const {
    Node* cur = root_;
    while (cur != nil_) {
      if (cmp_(key, cur->key)) {
        cur = cur->left;
      } else if (cmp_(cur->key, key)) {
        cur = cur->right;
      } else {
        return cur;
      }
    }
    return nil_;
  }

  Node* Minimum(Node* node) const {
    while (node->left != nil_) {
      node = node->left;
    }
    return node;
  }

  void LeftRotate(Node* x) {
    Node* y = x->right;
    x->right = y->left;
    if (y->left != nil_) {
      y->left->parent = x;
    }
    y->parent = x->parent;
    if (x->parent == nil_) {
      root_ = y;
    } else if (x == x->parent->left) {
      x->parent->left = y;
    } else {
      x->parent->right = y;
    }
    y->left = x;
    x->parent = y;
  }

  void RightRotate(Node* x) {
    Node* y = x->left;
    x->left = y->right;
    if (y->right != nil_) {
      y->right->parent = x;
    }
    y->parent = x->parent;
    if (x->parent == nil_) {
      root_ = y;
    } else if (x == x->parent->right) {
      x->parent->right = y;
    } else {
      x->parent->left = y;
    }
    y->right = x;
    x->parent = y;
  }

  void InsertFixup(Node* z) {
    while (z->parent->color == Color::kRed) {
      if (z->parent == z->parent->parent->left) {
        Node* uncle = z->parent->parent->right;
        if (uncle->color == Color::kRed) {
          z->parent->color = Color::kBlack;
          uncle->color = Color::kBlack;
          z->parent->parent->color = Color::kRed;
          z = z->parent->parent;
        } else {
          if (z == z->parent->right) {
            z = z->parent;
            LeftRotate(z);
          }
          z->parent->color = Color::kBlack;
          z->parent->parent->color = Color::kRed;
          RightRotate(z->parent->parent);
        }
      } else {
        Node* uncle = z->parent->parent->left;
        if (uncle->color == Color::kRed) {
          z->parent->color = Color::kBlack;
          uncle->color = Color::kBlack;
          z->parent->parent->color = Color::kRed;
          z = z->parent->parent;
        } else {
          if (z == z->parent->left) {
            z = z->parent;
            RightRotate(z);
          }
          z->parent->color = Color::kBlack;
          z->parent->parent->color = Color::kRed;
          LeftRotate(z->parent->parent);
        }
      }
    }
    root_->color = Color::kBlack;
  }

  void Transplant(Node* u, Node* v) {
    if (u->parent == nil_) {
      root_ = v;
    } else if (u == u->parent->left) {
      u->parent->left = v;
    } else {
      u->parent->right = v;
    }
    v->parent = u->parent;
  }

  void EraseNode(Node* z) {
    const bool was_rightmost = (z == rightmost_);
    Node* y = z;
    Node* x;
    Color y_original = y->color;
    if (z->left == nil_) {
      x = z->right;
      Transplant(z, z->right);
    } else if (z->right == nil_) {
      x = z->left;
      Transplant(z, z->left);
    } else {
      y = Minimum(z->right);
      y_original = y->color;
      x = y->right;
      if (y->parent == z) {
        x->parent = y;  // x may be nil_; its parent matters to the fixup
      } else {
        Transplant(y, y->right);
        y->right = z->right;
        y->right->parent = y;
      }
      Transplant(z, y);
      y->left = z->left;
      y->left->parent = y;
      y->color = z->color;
    }
    delete z;
    --size_;
    if (y_original == Color::kBlack) {
      EraseFixup(x);
    }
    if (was_rightmost) {
      rightmost_ = root_ == nil_ ? nullptr : Maximum(root_);
    }
  }

  Node* Maximum(Node* node) const {
    while (node->right != nil_) {
      node = node->right;
    }
    return node;
  }

  void EraseFixup(Node* x) {
    while (x != root_ && x->color == Color::kBlack) {
      if (x == x->parent->left) {
        Node* w = x->parent->right;
        if (w->color == Color::kRed) {
          w->color = Color::kBlack;
          x->parent->color = Color::kRed;
          LeftRotate(x->parent);
          w = x->parent->right;
        }
        if (w->left->color == Color::kBlack && w->right->color == Color::kBlack) {
          w->color = Color::kRed;
          x = x->parent;
        } else {
          if (w->right->color == Color::kBlack) {
            w->left->color = Color::kBlack;
            w->color = Color::kRed;
            RightRotate(w);
            w = x->parent->right;
          }
          w->color = x->parent->color;
          x->parent->color = Color::kBlack;
          w->right->color = Color::kBlack;
          LeftRotate(x->parent);
          x = root_;
        }
      } else {
        Node* w = x->parent->left;
        if (w->color == Color::kRed) {
          w->color = Color::kBlack;
          x->parent->color = Color::kRed;
          RightRotate(x->parent);
          w = x->parent->left;
        }
        if (w->right->color == Color::kBlack && w->left->color == Color::kBlack) {
          w->color = Color::kRed;
          x = x->parent;
        } else {
          if (w->left->color == Color::kBlack) {
            w->right->color = Color::kBlack;
            w->color = Color::kRed;
            LeftRotate(w);
            w = x->parent->left;
          }
          w->color = x->parent->color;
          x->parent->color = Color::kBlack;
          w->left->color = Color::kBlack;
          RightRotate(x->parent);
          x = root_;
        }
      }
    }
    x->color = Color::kBlack;
  }

  template <typename Fn>
  void ForEachImpl(Node* node, Fn& fn) const {
    if (node == nil_) {
      return;
    }
    ForEachImpl(node->left, fn);
    fn(node->key, node->value);
    ForEachImpl(node->right, fn);
  }

  void ClearImpl(Node* node) {
    if (node == nil_) {
      return;
    }
    ClearImpl(node->left);
    ClearImpl(node->right);
    delete node;
  }

  bool ValidateImpl(Node* node, int blacks, int* expected_blacks) const {
    if (node == nil_) {
      if (*expected_blacks < 0) {
        *expected_blacks = blacks;
      }
      return blacks == *expected_blacks;
    }
    if (node->color == Color::kRed &&
        (node->left->color == Color::kRed || node->right->color == Color::kRed)) {
      return false;  // red node with red child
    }
    if (node->left != nil_ && !cmp_(node->left->key, node->key)) {
      return false;  // BST order violated
    }
    if (node->right != nil_ && !cmp_(node->key, node->right->key)) {
      return false;
    }
    const int next = blacks + (node->color == Color::kBlack ? 1 : 0);
    return ValidateImpl(node->left, next, expected_blacks) &&
           ValidateImpl(node->right, next, expected_blacks);
  }

  Node* nil_;
  Node* root_;
  // Cache of the maximum node, so hinted appends past the current maximum
  // skip the root descent entirely. nullptr when the tree is empty.
  Node* rightmost_ = nullptr;
  std::size_t size_ = 0;
  Compare cmp_;
};

}  // namespace eunomia
