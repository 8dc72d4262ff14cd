#include "src/baseline/vma_tree.h"

#include <cassert>

#include "src/common/stats.h"

namespace cortenmm {

VmaTree::~VmaTree() { FreeAll(root_); }

void VmaTree::FreeAll(Vma* node) {
  if (node == nullptr) {
    return;
  }
  FreeAll(node->left);
  FreeAll(node->right);
  delete node;
}

void VmaTree::Update(Vma* node) {
  int lh = HeightOf(node->left);
  int rh = HeightOf(node->right);
  node->height = (lh > rh ? lh : rh) + 1;
}

Vma* VmaTree::RotateLeft(Vma* node) {
  Vma* pivot = node->right;
  node->right = pivot->left;
  pivot->left = node;
  Update(node);
  Update(pivot);
  return pivot;
}

Vma* VmaTree::RotateRight(Vma* node) {
  Vma* pivot = node->left;
  node->left = pivot->right;
  pivot->right = node;
  Update(node);
  Update(pivot);
  return pivot;
}

Vma* VmaTree::Rebalance(Vma* node) {
  Update(node);
  int balance = HeightOf(node->left) - HeightOf(node->right);
  if (balance > 1) {
    if (HeightOf(node->left->left) < HeightOf(node->left->right)) {
      node->left = RotateLeft(node->left);
    }
    return RotateRight(node);
  }
  if (balance < -1) {
    if (HeightOf(node->right->right) < HeightOf(node->right->left)) {
      node->right = RotateRight(node->right);
    }
    return RotateLeft(node);
  }
  return node;
}

Vma* VmaTree::InsertInto(Vma* node, Vma* fresh) {
  if (node == nullptr) {
    return fresh;
  }
  if (fresh->start < node->start) {
    node->left = InsertInto(node->left, fresh);
  } else {
    node->right = InsertInto(node->right, fresh);
  }
  return Rebalance(node);
}

Vma* VmaTree::Insert(Vaddr start, Vaddr end, Perm perm) {
  assert(start < end);
  Vma* fresh = new Vma;
  fresh->start = start;
  fresh->end = end;
  fresh->perm = perm;
  root_ = InsertInto(root_, fresh);
  ++count_;
  return fresh;
}

Vma* VmaTree::DetachMin(Vma* node, Vma** min_out) {
  if (node->left == nullptr) {
    *min_out = node;
    return node->right;
  }
  node->left = DetachMin(node->left, min_out);
  return Rebalance(node);
}

Vma* VmaTree::EraseFrom(Vma* node, Vaddr start, Vma** erased) {
  if (node == nullptr) {
    return nullptr;
  }
  if (start < node->start) {
    node->left = EraseFrom(node->left, start, erased);
  } else if (start > node->start) {
    node->right = EraseFrom(node->right, start, erased);
  } else {
    *erased = node;
    if (node->left == nullptr) {
      return node->right;
    }
    if (node->right == nullptr) {
      return node->left;
    }
    // Splice the successor node into this position (pointers to nodes held by
    // callers must stay valid, so values are never copied between nodes).
    Vma* successor = nullptr;
    Vma* new_right = DetachMin(node->right, &successor);
    successor->left = node->left;
    successor->right = new_right;
    return Rebalance(successor);
  }
  return Rebalance(node);
}

void VmaTree::Erase(Vma* vma) {
  Vma* erased = nullptr;
  root_ = EraseFrom(root_, vma->start, &erased);
  assert(erased == vma);
  delete erased;
  --count_;
}

Vma* VmaTree::Find(Vaddr va) const {
  Vma* node = root_;
  Vma* best = nullptr;
  while (node != nullptr) {
    if (va < node->start) {
      node = node->left;
    } else {
      best = node;  // start <= va; candidate.
      node = node->right;
    }
  }
  return best != nullptr && best->Contains(va) ? best : nullptr;
}

Vma* VmaTree::FindFirstOverlap(VaRange range) const {
  Vma* node = root_;
  Vma* best = nullptr;
  while (node != nullptr) {
    if (node->Overlaps(range)) {
      best = node;          // Keep searching left for an earlier overlap.
      node = node->left;
    } else if (range.start < node->start) {
      node = node->left;
    } else {
      node = node->right;
    }
  }
  return best;
}

void VmaTree::ForEachOverlap(VaRange range, const std::function<void(Vma*)>& visit) const {
  Vma* vma = FindFirstOverlap(range);
  while (vma != nullptr && vma->start < range.end) {
    if (vma->Overlaps(range)) {
      visit(vma);
    }
    vma = Next(vma);
  }
}

Vma* VmaTree::Next(const Vma* vma) const {
  // No parent pointers: search from the root for the smallest start > vma's.
  Vma* node = root_;
  Vma* best = nullptr;
  while (node != nullptr) {
    if (node->start > vma->start) {
      best = node;
      node = node->left;
    } else {
      node = node->right;
    }
  }
  return best;
}

Vma* VmaTree::SplitAt(Vma* vma, Vaddr at) {
  assert(at > vma->start && at < vma->end);
  CountEvent(Counter::kVmaSplits);
  Vaddr old_end = vma->end;
  vma->seq.WriteBegin();
  vma->end = at;
  vma->seq.WriteEnd();
  return Insert(at, old_end, vma->perm);
}

bool VmaTree::TryMergeWithNext(Vma* vma) {
  Vma* next = Next(vma);
  if (next == nullptr || next->start != vma->end || !(next->perm == vma->perm)) {
    return false;
  }
  CountEvent(Counter::kVmaMerges);
  vma->seq.WriteBegin();
  vma->end = next->end;
  vma->seq.WriteEnd();
  Erase(next);
  return true;
}

bool VmaTree::CheckInvariants() const {
  // In-order walk: strictly increasing, non-overlapping, AVL-balanced.
  bool ok = true;
  Vaddr prev_end = 0;
  std::function<int(const Vma*)> walk = [&](const Vma* node) -> int {
    if (node == nullptr) {
      return 0;
    }
    int lh = walk(node->left);
    if (node->start < prev_end || node->start >= node->end) {
      ok = false;
    }
    prev_end = node->end;
    int rh = walk(node->right);
    if (node->height != (lh > rh ? lh : rh) + 1 || lh - rh > 1 || rh - lh > 1) {
      ok = false;
    }
    return node->height;
  };
  walk(root_);
  return ok;
}

}  // namespace cortenmm
