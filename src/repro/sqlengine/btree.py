"""A B+-tree supporting composite keys, duplicates, and bulk loading.

This is the engine's physical index structure. Keys are tuples (one
element per indexed column); values are row ids. Duplicate keys are
allowed — point lookups return every matching rid.

The tree implements the full textbook algorithm set:

* top-down search with binary search within nodes,
* leaf inserts with node splits propagating upward,
* deletes with redistribution (borrowing) and merging, shrinking the
  root when it empties,
* bottom-up bulk loading from sorted input (used for index builds),
* ordered iteration via the leaf chain, and prefix/range scans.

``check_invariants`` verifies structural invariants and is exercised by
the property-based test suite after random operation sequences.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import StorageError

Key = Tuple
KeyValue = Tuple[Key, int]

#: Default maximum number of entries per node. Chosen so that node sizes
#: resemble real index pages for small tuples while keeping Python-level
#: overhead reasonable.
DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: List[Key] = []

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: List[int] = []
        self.next: Optional["_Leaf"] = None

    @property
    def is_leaf(self) -> bool:
        return True


class _Internal(_Node):
    """Internal node: ``children[i]`` holds keys < ``keys[i]``; the last
    child holds keys >= ``keys[-1]`` (right-biased separators)."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: List[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False


def normalize_key(key) -> Key:
    """Accept scalars or sequences; store keys as tuples."""
    if isinstance(key, tuple):
        return key
    if isinstance(key, list):
        return tuple(key)
    return (key,)


class BPlusTree:
    """A B+-tree mapping composite keys to row ids.

    Args:
        order: maximum entries per node (>= 4).
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise StorageError("B+-tree order must be >= 4")
        self.order = order
        self._min_fill = order // 2
        self._root: _Node = _Leaf()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels, counting the leaf level."""
        return self._height

    def search(self, key) -> List[int]:
        """Return all row ids stored under ``key`` (exact match)."""
        key = normalize_key(key)
        leaf = self._find_leaf_first(key)
        out: List[int] = []
        idx = bisect.bisect_left(leaf.keys, key)
        while True:
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                out.append(leaf.values[idx])
                idx += 1
            if idx < len(leaf.keys) or leaf.next is None:
                break
            leaf = leaf.next
            idx = 0
            if leaf.keys and leaf.keys[0] != key:
                break
        return out

    def search_prefix(self, prefix) -> List[Tuple[Key, int]]:
        """All ``(key, rid)`` pairs whose key starts with ``prefix``."""
        prefix = normalize_key(prefix)
        plen = len(prefix)
        out: List[Tuple[Key, int]] = []
        for key, rid in self.iter_from(prefix):
            if key[:plen] != prefix:
                break
            out.append((key, rid))
        return out

    def range_scan(self, lo=None, hi=None, lo_inclusive: bool = True,
                   hi_inclusive: bool = True) -> List[Tuple[Key, int]]:
        """All pairs with ``lo (<|<=) key (<|<=) hi``.

        ``None`` bounds are open-ended. Bounds may be shorter tuples
        than the stored keys; tuple prefix ordering applies (a bound
        ``(5,)`` sorts before ``(5, anything)``).
        """
        out: List[Tuple[Key, int]] = []
        start = normalize_key(lo) if lo is not None else None
        stop = normalize_key(hi) if hi is not None else None
        iterator = self.iter_from(start) if start is not None \
            else self.items()
        for key, rid in iterator:
            if start is not None and not lo_inclusive and \
                    key[:len(start)] == start:
                continue
            if stop is not None:
                trimmed = key[:len(stop)]
                if trimmed > stop:
                    break
                if trimmed == stop and not hi_inclusive:
                    break
            out.append((key, rid))
        return out

    def items(self) -> Iterator[Tuple[Key, int]]:
        """Iterate all pairs in key order via the leaf chain."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            for key, rid in zip(leaf.keys, leaf.values):
                yield key, rid
            leaf = leaf.next

    def iter_from(self, key) -> Iterator[Tuple[Key, int]]:
        """Iterate pairs with keys >= ``key`` in order."""
        key = normalize_key(key)
        leaf = self._find_leaf_first(key)
        idx = bisect.bisect_left(leaf.keys, key)
        while leaf is not None:
            while idx < len(leaf.keys):
                yield leaf.keys[idx], leaf.values[idx]
                idx += 1
            leaf = leaf.next
            idx = 0

    # ------------------------------------------------------------------
    # geometry (for page accounting)
    # ------------------------------------------------------------------

    def node_counts(self) -> Tuple[int, int]:
        """Return ``(n_leaf_nodes, n_internal_nodes)``."""
        leaves = 0
        internals = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                internals += 1
                stack.extend(node.children)  # type: ignore[attr-defined]
        return leaves, internals

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, key, rid: int) -> None:
        """Insert ``(key, rid)``; duplicates are kept."""
        key = normalize_key(key)
        split = self._insert(self._root, key, rid)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def delete(self, key, rid: Optional[int] = None) -> bool:
        """Delete one entry matching ``key`` (and ``rid`` if given).

        Returns True if an entry was removed.
        """
        key = normalize_key(key)
        removed = self._delete(self._root, key, rid)
        if removed:
            self._size -= 1
            root = self._root
            if not root.is_leaf and len(root.children) == 1:  # type: ignore[attr-defined]
                self._root = root.children[0]  # type: ignore[attr-defined]
                self._height -= 1
        return removed

    def bulk_load(self, pairs: Iterable[KeyValue],
                  fault_hook=None) -> None:
        """Replace the tree's contents by bottom-up loading sorted pairs.

        ``pairs`` must be sorted by key (duplicates allowed). This is
        how index builds work: sort once, then write full pages.

        ``fault_hook`` (when given) is called once per leaf chunk; it
        may raise to abort the load mid-way. The load is atomic either
        way: the new tree is assembled off to the side and only
        assigned at the end, so an aborted load leaves the existing
        tree untouched.
        """
        pairs = [(normalize_key(k), v) for k, v in pairs]
        for (prev, _), (cur, _) in zip(pairs, pairs[1:]):
            if cur < prev:
                raise StorageError("bulk_load input must be sorted")
        fill = max(2, int(self.order * 0.85))
        leaves: List[_Leaf] = []
        for start in range(0, len(pairs), fill):
            if fault_hook is not None:
                fault_hook()
            leaf = _Leaf()
            chunk = pairs[start:start + fill]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        if not leaves:
            self._root = _Leaf()
            self._size = 0
            self._height = 1
            return
        # Avoid an underfull rightmost leaf by rebalancing with its left
        # sibling (classic bulk-load fix-up).
        if len(leaves) > 1 and len(leaves[-1].keys) < self._min_fill:
            left, right = leaves[-2], leaves[-1]
            total = len(left.keys) + len(right.keys)
            keep = total // 2
            right.keys = left.keys[keep:] + right.keys
            right.values = left.values[keep:] + right.values
            del left.keys[keep:], left.values[keep:]
        level: List[_Node] = list(leaves)
        height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), fill):
                chunk = level[start:start + fill]
                parent = _Internal()
                parent.children = list(chunk)
                parent.keys = [self._smallest_key(c) for c in chunk[1:]]
                parents.append(parent)
            if len(parents) > 1 and \
                    len(parents[-1].children) < 2:  # type: ignore[attr-defined]
                # Merge a singleton rightmost parent into its sibling.
                lone = parents.pop()
                prev = parents[-1]
                prev.keys.append(  # type: ignore[attr-defined]
                    self._smallest_key(lone.children[0]))  # type: ignore[attr-defined]
                prev.children.extend(  # type: ignore[attr-defined]
                    lone.children)  # type: ignore[attr-defined]
            level = parents
            height += 1
        self._root = level[0]
        self._size = len(pairs)
        self._height = height

    # ------------------------------------------------------------------
    # invariants (testing aid)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`StorageError` if any structural invariant fails."""
        count = self._check_node(self._root, None, None, is_root=True,
                                 depth=0, leaf_depths=set())
        if count != self._size:
            raise StorageError(
                f"size mismatch: counted {count}, recorded {self._size}")
        # Leaf chain covers all entries in sorted order.
        chained = list(self.items())
        if len(chained) != self._size:
            raise StorageError("leaf chain does not cover all entries")
        for (a, _), (b, _) in zip(chained, chained[1:]):
            if b < a:
                raise StorageError("leaf chain out of order")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _find_leaf_first(self, key: Key) -> _Leaf:
        """Leaf holding the *first* occurrence of ``key`` (or its
        insertion point). Descends with bisect_left so duplicates that
        ended up left of an equal separator are not skipped."""
        node = self._root
        while not node.is_leaf:
            internal = node  # type: _Internal  # type: ignore[assignment]
            idx = bisect.bisect_left(internal.keys, key)
            node = internal.children[idx]
        return node  # type: ignore[return-value]

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def _smallest_key(self, node: _Node) -> Key:
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
        return node.keys[0]

    def _insert(self, node: _Node, key: Key,
                rid: int) -> Optional[Tuple[Key, _Node]]:
        if node.is_leaf:
            leaf = node  # type: _Leaf  # type: ignore[assignment]
            idx = bisect.bisect_right(leaf.keys, key)
            leaf.keys.insert(idx, key)
            leaf.values.insert(idx, rid)
            if len(leaf.keys) > self.order:
                return self._split_leaf(leaf)
            return None
        internal = node  # type: _Internal  # type: ignore[assignment]
        idx = bisect.bisect_right(internal.keys, key)
        split = self._insert(internal.children[idx], key, rid)
        if split is None:
            return None
        sep, right = split
        internal.keys.insert(idx, sep)
        internal.children.insert(idx + 1, right)
        if len(internal.children) > self.order:
            return self._split_internal(internal)
        return None

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Key, _Node]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        del leaf.keys[mid:], leaf.values[mid:]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[Key, _Node]:
        mid = len(node.children) // 2
        right = _Internal()
        right.children = node.children[mid:]
        right.keys = node.keys[mid:]
        sep = node.keys[mid - 1]
        del node.children[mid:]
        del node.keys[mid - 1:]
        return sep, right

    def _delete(self, node: _Node, key: Key, rid: Optional[int]) -> bool:
        if node.is_leaf:
            leaf = node  # type: _Leaf  # type: ignore[assignment]
            idx = bisect.bisect_left(leaf.keys, key)
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                if rid is None or leaf.values[idx] == rid:
                    del leaf.keys[idx], leaf.values[idx]
                    return True
                idx += 1
            return False
        internal = node  # type: _Internal  # type: ignore[assignment]
        idx = bisect.bisect_right(internal.keys, key)
        # Duplicates equal to a separator may sit in the child to its
        # left as well; retry there if the right child missed.
        removed = self._delete(internal.children[idx], key, rid)
        if removed:
            self._rebalance_child(internal, idx)
            return True
        while idx > 0 and internal.keys[idx - 1] == key:
            idx -= 1
            if self._delete(internal.children[idx], key, rid):
                self._rebalance_child(internal, idx)
                return True
        return False

    def _fill_of(self, node: _Node) -> int:
        if node.is_leaf:
            return len(node.keys)
        return len(node.children)  # type: ignore[attr-defined]

    def _rebalance_child(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        if self._fill_of(child) >= self._min_fill:
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] \
            if idx + 1 < len(parent.children) else None
        if left is not None and self._fill_of(left) > self._min_fill:
            self._borrow_from_left(parent, idx)
        elif right is not None and self._fill_of(right) > self._min_fill:
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge_children(parent, idx - 1)
        elif right is not None:
            self._merge_children(parent, idx)

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        left, child = parent.children[idx - 1], parent.children[idx]
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())  # type: ignore[attr-defined]
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.children.insert(0, left.children.pop())  # type: ignore[attr-defined]
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        child, right = parent.children[idx], parent.children[idx + 1]
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))  # type: ignore[attr-defined]
            parent.keys[idx] = right.keys[0]
        else:
            child.children.append(right.children.pop(0))  # type: ignore[attr-defined]
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)

    def _merge_children(self, parent: _Internal, idx: int) -> None:
        """Merge child ``idx+1`` into child ``idx``."""
        left, right = parent.children[idx], parent.children[idx + 1]
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)  # type: ignore[attr-defined]
            left.next = right.next  # type: ignore[attr-defined]
        else:
            left.keys.append(parent.keys[idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)  # type: ignore[attr-defined]
        del parent.keys[idx]
        del parent.children[idx + 1]

    def _check_node(self, node: _Node, lo: Optional[Key], hi: Optional[Key],
                    is_root: bool, depth: int, leaf_depths: set) -> int:
        keys = node.keys
        for a, b in zip(keys, keys[1:]):
            if b < a:
                raise StorageError("node keys out of order")
        for k in keys:
            if lo is not None and k < lo:
                raise StorageError("key below subtree lower bound")
            # Duplicate runs may legally leave keys equal to the parent
            # separator in the left subtree, so only strictly-greater
            # keys violate the bound.
            if hi is not None and k > hi and node.is_leaf:
                raise StorageError("leaf key above subtree upper bound")
        if node.is_leaf:
            leaf_depths.add(depth)
            if len(leaf_depths) > 1:
                raise StorageError("leaves at different depths")
            if not is_root and len(keys) < self._min_fill \
                    and self._size >= self.order:
                # Bulk-loaded trees with very few entries may legally
                # have a sparse root-adjacent leaf; enforce only when
                # the tree is big enough for fills to matter.
                raise StorageError("underfull leaf")
            return len(keys)
        internal = node  # type: _Internal  # type: ignore[assignment]
        if len(internal.children) != len(keys) + 1:
            raise StorageError("internal fanout/key mismatch")
        if not is_root and len(internal.children) < self._min_fill \
                and self._size >= self.order ** 2:
            raise StorageError("underfull internal node")
        total = 0
        bounds = [lo] + list(keys) + [hi]
        for i, child in enumerate(internal.children):
            total += self._check_node(child, bounds[i], bounds[i + 1],
                                      is_root=False, depth=depth + 1,
                                      leaf_depths=leaf_depths)
        return total
