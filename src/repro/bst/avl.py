"""A from-scratch AVL multiset.

RMA-Analyzer stores memory accesses in a balanced binary search tree
("the BST is implemented using the multiset containers provided by the
C++ standard", §5.1 — i.e. a red-black multiset).  We implement the
balanced multiset ourselves as an AVL tree: same O(log n) search /
insert / delete bounds the paper's complexity argument (§4.2) relies on.

The tree is generic over the payload; ordering is by an integer key with
an explicit tie-break sequence so equal keys (a genuine multiset) behave
deterministically.  Subtrees carry an augmentation slot maintained by a
user hook — :mod:`repro.bst.interval_tree` uses it to keep the maximum
interval upper bound per subtree, which is what turns the plain multiset
into an interval tree with O(log n + k) overlap queries.

Balancing can be disabled (``balanced=False``) to measure how much the
log-time claim depends on it (``benchmarks/bench_ablation_balance.py``).
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, List, Optional, TypeVar

from .stats import FANOUT_NBUCKETS, TreeStats

__all__ = ["AVLNode", "AVLTree", "TreeStats", "FANOUT_NBUCKETS"]

T = TypeVar("T")


class AVLNode(Generic[T]):
    """One tree node.  Attribute access is hot; keep it ``__slots__``-lean."""

    __slots__ = ("key", "tie", "value", "left", "right", "height", "aug")

    def __init__(self, key: int, tie: int, value: T) -> None:
        self.key = key
        self.tie = tie
        self.value = value
        self.left: Optional[AVLNode[T]] = None
        self.right: Optional[AVLNode[T]] = None
        self.height = 1
        self.aug: int = 0

    def __repr__(self) -> str:  # debugging aid only
        return f"AVLNode(key={self.key}, tie={self.tie}, value={self.value!r})"


def _height(node: Optional[AVLNode[T]]) -> int:
    return node.height if node is not None else 0


class AVLTree(Generic[T]):
    """Balanced multiset of ``(key, value)`` pairs ordered by ``(key, tie)``.

    ``augment`` is called bottom-up after any structural change with the
    node to refresh; it must recompute ``node.aug`` from the node's value
    and its children's ``aug``.
    """

    def __init__(
        self,
        augment: Optional[Callable[[AVLNode[T]], None]] = None,
        *,
        balanced: bool = True,
    ) -> None:
        self.root: Optional[AVLNode[T]] = None
        self._size = 0
        self._next_tie = 0
        self._augment = augment
        self._balanced = balanced
        self.stats = TreeStats()

    # -- size / iteration --------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[T]:
        """In-order traversal of payloads (ascending key)."""
        stack: List[AVLNode[T]] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.value
            node = node.right

    def height(self) -> int:
        return _height(self.root)

    def clear(self) -> None:
        self.root = None
        self._size = 0

    # -- maintenance ---------------------------------------------------------

    def _refresh(self, node: AVLNode[T]) -> None:
        node.height = 1 + max(_height(node.left), _height(node.right))
        if self._augment is not None:
            self._augment(node)

    def _rotate_right(self, y: AVLNode[T]) -> AVLNode[T]:
        x = y.left
        assert x is not None
        y.left = x.right
        x.right = y
        self._refresh(y)
        self._refresh(x)
        self.stats.rotations += 1
        return x

    def _rotate_left(self, x: AVLNode[T]) -> AVLNode[T]:
        y = x.right
        assert y is not None
        x.right = y.left
        y.left = x
        self._refresh(x)
        self._refresh(y)
        self.stats.rotations += 1
        return y

    def _rebalance(self, node: AVLNode[T]) -> AVLNode[T]:
        self._refresh(node)
        if not self._balanced:
            return node
        balance = _height(node.left) - _height(node.right)
        if balance > 1:
            assert node.left is not None
            if _height(node.left.left) < _height(node.left.right):
                node.left = self._rotate_left(node.left)
            return self._rotate_right(node)
        if balance < -1:
            assert node.right is not None
            if _height(node.right.right) < _height(node.right.left):
                node.right = self._rotate_right(node.right)
            return self._rotate_left(node)
        return node

    # -- mutation -------------------------------------------------------------

    def insert(self, key: int, value: T) -> None:
        """Insert ``value`` under ``key`` (duplicates allowed)."""
        tie = self._next_tie
        self._next_tie += 1
        self.root = self._insert(self.root, key, tie, value)
        self._size += 1
        self.stats.inserts += 1
        if self._size > self.stats.max_size:
            self.stats.max_size = self._size

    def _insert(
        self, node: Optional[AVLNode[T]], key: int, tie: int, value: T
    ) -> AVLNode[T]:
        if node is None:
            leaf = AVLNode(key, tie, value)
            self._refresh(leaf)
            return leaf
        self.stats.comparisons += 1
        if (key, tie) < (node.key, node.tie):
            node.left = self._insert(node.left, key, tie, value)
        else:
            node.right = self._insert(node.right, key, tie, value)
        return self._rebalance(node)

    def remove_value(self, key: int, value: T) -> bool:
        """Remove one node holding exactly ``value`` under ``key``.

        Returns False when no such node exists.  Identity of the payload
        (``==``) is the removal criterion, matching ``multiset::erase``
        of a located element.
        """
        removed, self.root = self._remove(self.root, key, value)
        if removed:
            self._size -= 1
            self.stats.removals += 1
        return removed

    def _remove(
        self, node: Optional[AVLNode[T]], key: int, value: T
    ) -> tuple[bool, Optional[AVLNode[T]]]:
        if node is None:
            return False, None
        self.stats.comparisons += 1
        if key < node.key:
            removed, node.left = self._remove(node.left, key, value)
        elif key > node.key:
            removed, node.right = self._remove(node.right, key, value)
        elif node.value == value:
            return True, self._pop_node(node)
        else:
            # equal keys may sit on either side because of tie-breaks
            removed, node.left = self._remove(node.left, key, value)
            if not removed:
                removed, node.right = self._remove(node.right, key, value)
        if not removed:
            return False, node
        return True, self._rebalance(node)

    def _pop_node(self, node: AVLNode[T]) -> Optional[AVLNode[T]]:
        """Detach ``node``, returning the subtree that replaces it."""
        if node.left is None:
            return node.right
        if node.right is None:
            return node.left
        # replace with the in-order successor, removed recursively so the
        # whole path keeps correct heights/augmentations
        succ, new_right = self._detach_min(node.right)
        succ.left = node.left
        succ.right = new_right
        return self._rebalance(succ)

    def _detach_min(
        self, node: AVLNode[T]
    ) -> tuple[AVLNode[T], Optional[AVLNode[T]]]:
        if node.left is None:
            return node, node.right
        mn, node.left = self._detach_min(node.left)
        return mn, self._rebalance(node)

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Structure-preserving state capture (``repro-ckpt-v1``).

        Encodes the exact node layout (preorder, with child-presence
        flags) plus the tie counter and operation stats, so a restored
        tree is byte-for-byte the same *future*: identical rebalancing,
        identical legacy-search outcomes, identical comparison counts.
        Iterative on purpose — an unbalanced ablation tree can be O(n)
        deep, which would blow the recursion limit (and naive pickling).

        The per-node value payloads are captured by reference; serialize
        the snapshot (or stop mutating the payloads) before mutating the
        live tree further.
        """
        nodes: List[tuple] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            nodes.append((node.key, node.tie, node.value, node.height,
                          node.aug, node.left is not None,
                          node.right is not None))
            stack.append(node.right)  # left is processed first (preorder)
            stack.append(node.left)
        return {
            "nodes": nodes,
            "size": self._size,
            "next_tie": self._next_tie,
            "balanced": self._balanced,
            "stats": self.stats.to_dict(),
        }

    def restore(self, snap: dict) -> None:
        """Rebuild this tree from :meth:`snapshot` output (iterative)."""
        if bool(snap["balanced"]) != self._balanced:
            raise ValueError(
                "checkpoint balanced=%s does not match tree balanced=%s"
                % (snap["balanced"], self._balanced))
        records = snap["nodes"]
        if not records:
            self.root = None
        else:
            def make(rec: tuple) -> AVLNode[T]:
                n = AVLNode(rec[0], rec[1], rec[2])
                n.height = rec[3]
                n.aug = rec[4]
                return n

            root = make(records[0])
            # stack entries: [node, needs_left, needs_right]; preorder
            # guarantees the next record is the deepest unfilled slot
            stack = [[root, records[0][5], records[0][6]]]
            for rec in records[1:]:
                child = make(rec)
                while not stack[-1][1] and not stack[-1][2]:
                    stack.pop()
                top = stack[-1]
                if top[1]:
                    top[0].left = child
                    top[1] = False
                else:
                    top[0].right = child
                    top[2] = False
                stack.append([child, rec[5], rec[6]])
            self.root = root
        self._size = snap["size"]
        self._next_tie = snap["next_tie"]
        self.stats = TreeStats.from_dict(snap["stats"])

    # -- validation (used by tests and hypothesis) -----------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when BST order / AVL balance is violated."""

        def walk(node: Optional[AVLNode[T]]) -> tuple[int, tuple, tuple]:
            if node is None:
                return 0, (), ()
            lh, lmin, lmax = walk(node.left)
            rh, rmin, rmax = walk(node.right)
            me = (node.key, node.tie)
            if lmax:
                assert lmax <= me, f"left child {lmax} > node {me}"
            if rmin:
                assert rmin >= me, f"right child {rmin} < node {me}"
            h = 1 + max(lh, rh)
            assert node.height == h, f"stale height at {me}"
            if self._balanced:
                assert abs(lh - rh) <= 1, f"unbalanced at {me}"
            lo = lmin or me
            hi = rmax or me
            return h, lo, hi

        walk(self.root)
        assert self._size == sum(1 for _ in self)
