#include "src/mpisim/conflict_tree.hpp"

#include <algorithm>

namespace mpisim {

namespace detail {
struct CtNode {
  std::uintptr_t lo;
  std::uintptr_t hi;
  CtNode* left = nullptr;
  CtNode* right = nullptr;
  int height = 1;
};
}  // namespace detail

namespace {

using Node = detail::CtNode;

int height_of(const Node* n) noexcept { return n ? n->height : 0; }

void update_height(Node* n) noexcept {
  n->height = 1 + std::max(height_of(n->left), height_of(n->right));
}

int balance_of(const Node* n) noexcept {
  return height_of(n->left) - height_of(n->right);
}

Node* rotate_right(Node* y) noexcept {
  Node* x = y->left;
  y->left = x->right;
  x->right = y;
  update_height(y);
  update_height(x);
  return x;
}

Node* rotate_left(Node* x) noexcept {
  Node* y = x->right;
  x->right = y->left;
  y->left = x;
  update_height(x);
  update_height(y);
  return y;
}

Node* rebalance(Node* n) noexcept {
  update_height(n);
  const int b = balance_of(n);
  if (b > 1) {
    if (balance_of(n->left) < 0) n->left = rotate_left(n->left);
    return rotate_right(n);
  }
  if (b < -1) {
    if (balance_of(n->right) > 0) n->right = rotate_right(n->right);
    return rotate_left(n);
  }
  return n;
}

/// Merged check-and-insert (paper §VI-B): descend comparing against each
/// node; a new range that neither lies wholly below nor wholly above the
/// node's range overlaps it, and the insertion fails. A new node comes from
/// \p spare (kept by clear(), chained through left) when it has one.
Node* insert_node(Node* n, std::uintptr_t lo, std::uintptr_t hi, bool& ok,
                  Node*& spare) {
  if (n == nullptr) {
    ok = true;
    if (spare == nullptr) return new Node{lo, hi};
    Node* fresh = spare;
    spare = fresh->left;
    *fresh = Node{lo, hi};
    return fresh;
  }
  if (hi < n->lo) {
    n->left = insert_node(n->left, lo, hi, ok, spare);
  } else if (lo > n->hi) {
    n->right = insert_node(n->right, lo, hi, ok, spare);
  } else {
    // lo or hi falls inside [n->lo, n->hi], or the new range encloses it.
    ok = false;
    return n;
  }
  return ok ? rebalance(n) : n;
}

const Node* find_overlap_node(const Node* n, std::uintptr_t lo,
                              std::uintptr_t hi) {
  while (n != nullptr) {
    if (hi < n->lo)
      n = n->left;
    else if (lo > n->hi)
      n = n->right;
    else
      return n;
  }
  return nullptr;
}

Node* min_node(Node* n) noexcept {
  while (n->left != nullptr) n = n->left;
  return n;
}

/// Standard AVL removal by key. Stored ranges are pairwise disjoint, so
/// ordering by lo alone identifies the node.
Node* erase_node(Node* n, std::uintptr_t lo, bool& removed) {
  if (n == nullptr) return nullptr;
  if (lo < n->lo) {
    n->left = erase_node(n->left, lo, removed);
  } else if (lo > n->lo) {
    n->right = erase_node(n->right, lo, removed);
  } else {
    removed = true;
    if (n->left == nullptr || n->right == nullptr) {
      Node* child = n->left != nullptr ? n->left : n->right;
      delete n;
      return child;
    }
    Node* s = min_node(n->right);
    n->lo = s->lo;
    n->hi = s->hi;
    bool inner = false;
    n->right = erase_node(n->right, s->lo, inner);
  }
  return rebalance(n);
}

void destroy(Node* n) noexcept {
  if (n == nullptr) return;
  destroy(n->left);
  destroy(n->right);
  delete n;
}

/// Chain every node of the subtree \p n onto \p spare, through left.
void release(Node* n, Node*& spare) noexcept {
  if (n == nullptr) return;
  release(n->left, spare);
  release(n->right, spare);
  n->left = spare;
  spare = n;
}

/// Delete a spare chain; a loop, since the chain may be long.
void destroy_chain(Node* n) noexcept {
  while (n != nullptr) {
    Node* next = n->left;
    delete n;
    n = next;
  }
}

bool check_node(const Node* n, std::uintptr_t lo_bound, std::uintptr_t hi_bound,
                bool has_lo, bool has_hi) {
  if (n == nullptr) return true;
  if (n->lo > n->hi) return false;
  if (has_lo && n->lo <= lo_bound) return false;
  if (has_hi && n->hi >= hi_bound) return false;
  if (std::abs(balance_of(n)) > 1) return false;
  if (n->height != 1 + std::max(height_of(n->left), height_of(n->right)))
    return false;
  return check_node(n->left, lo_bound, n->lo, has_lo, true) &&
         check_node(n->right, n->hi, hi_bound, true, has_hi);
}

}  // namespace

ConflictTree::~ConflictTree() {
  destroy(root_);
  destroy_chain(spare_);
}

ConflictTree::ConflictTree(ConflictTree&& other) noexcept
    : root_(other.root_), spare_(other.spare_), size_(other.size_) {
  other.root_ = nullptr;
  other.spare_ = nullptr;
  other.size_ = 0;
}

ConflictTree& ConflictTree::operator=(ConflictTree&& other) noexcept {
  if (this != &other) {
    destroy(root_);
    destroy_chain(spare_);
    root_ = other.root_;
    spare_ = other.spare_;
    size_ = other.size_;
    other.root_ = nullptr;
    other.spare_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

bool ConflictTree::insert(std::uintptr_t lo, std::uintptr_t hi) {
  if (lo > hi) return false;
  bool ok = false;
  root_ = insert_node(root_, lo, hi, ok, spare_);
  if (ok) ++size_;
  return ok;
}

void ConflictTree::insert_coalesce(std::uintptr_t lo, std::uintptr_t hi) {
  if (lo > hi) return;
  // Widen the probe by one on each side (clamped at the type bounds) so
  // touching neighbours are absorbed too, but insert only the union of the
  // ranges actually found -- the probe widening must not leak into storage.
  for (;;) {
    const std::uintptr_t probe_lo = lo == 0 ? lo : lo - 1;
    const std::uintptr_t probe_hi = hi == std::uintptr_t(-1) ? hi : hi + 1;
    const Node* o = find_overlap_node(root_, probe_lo, probe_hi);
    if (o == nullptr) break;
    lo = std::min(lo, o->lo);
    hi = std::max(hi, o->hi);
    bool removed = false;
    root_ = erase_node(root_, o->lo, removed);
    if (removed) --size_;
  }
  bool ok = false;
  root_ = insert_node(root_, lo, hi, ok, spare_);
  if (ok) ++size_;
}

namespace {

void visit_node(const Node* n,
                const std::function<void(std::uintptr_t, std::uintptr_t)>& fn) {
  if (n == nullptr) return;
  visit_node(n->left, fn);
  fn(n->lo, n->hi);
  visit_node(n->right, fn);
}

}  // namespace

void ConflictTree::visit(
    const std::function<void(std::uintptr_t, std::uintptr_t)>& fn) const {
  visit_node(root_, fn);
}

bool ConflictTree::conflicts(std::uintptr_t lo, std::uintptr_t hi) const {
  if (lo > hi) return false;
  return find_overlap_node(root_, lo, hi) != nullptr;
}

bool ConflictTree::overlapping(std::uintptr_t lo, std::uintptr_t hi,
                               std::uintptr_t* out_lo,
                               std::uintptr_t* out_hi) const {
  if (lo > hi) return false;
  const Node* n = find_overlap_node(root_, lo, hi);
  if (n == nullptr) return false;
  *out_lo = n->lo;
  *out_hi = n->hi;
  return true;
}

void ConflictTree::clear() noexcept {
  release(root_, spare_);
  root_ = nullptr;
  size_ = 0;
}

int ConflictTree::height() const noexcept { return height_of(root_); }

bool ConflictTree::check_invariants() const {
  return check_node(root_, 0, 0, false, false);
}

}  // namespace mpisim
