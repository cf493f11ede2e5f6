"""Exact branch-width and linear-width with certificates, plus the duality audits."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import ConnectivitySystem, gate_limit, popcount
from .errors import (
    GroundSetTooLargeForExhaustiveSearch,
    InvalidParameter,
    MalformedTree,
    NotAPermutation,
    NotASequenceChain,
    NotSingleElement,
)
from .families import SetFamily

WIDTH_MAX_N = 10


@dataclass(frozen=True)
class BranchDecomposition:
    """Unrooted tree with internal degree 3 whose leaves carry the elements.

    Nodes are integers; leaf node i (0 <= i < n) carries element
    leaf_elements[i]. Internal nodes are n .. 2n-3.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    leaf_elements: tuple[int, ...]

    def validate(self) -> None:
        n = self.n
        if sorted(self.leaf_elements) != list(range(n)):
            raise MalformedTree("leaf labels must biject to the ground set")
        if n == 1:
            if self.edges:
                raise MalformedTree("a single-element decomposition has no edges")
            return
        expected_nodes = 2 * n - 2 if n >= 3 else 2
        if len(self.edges) != expected_nodes - 1:
            raise MalformedTree(f"expected {expected_nodes - 1} edges, got {len(self.edges)}")
        degree: dict[int, int] = {}
        for u, v in self.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if set(degree) != set(range(expected_nodes)):
            raise MalformedTree("edges must span nodes 0..2n-3 exactly")
        for node in range(n):
            if degree[node] != 1:
                raise MalformedTree(f"leaf node {node} has degree {degree[node]}")
        for node in range(n, expected_nodes):
            if degree[node] != 3:
                raise MalformedTree(f"internal node {node} has degree {degree[node]}")
        # connectivity: a tree on V nodes with V-1 edges is connected iff acyclic
        parent = list(range(expected_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise MalformedTree("edges contain a cycle")
            parent[ru] = rv

    def edge_sides(self) -> list[int]:
        """For each edge, the element bitmask of one side of the split."""
        if self.n == 1:
            return []
        adj: dict[int, list[tuple[int, int]]] = {}
        for idx, (u, v) in enumerate(self.edges):
            adj.setdefault(u, []).append((v, idx))
            adj.setdefault(v, []).append((u, idx))
        masks = [0] * len(self.edges)
        root = self.n  # any internal node; for n == 2 fall back to leaf 1
        if root not in adj:
            root = 1
        stack = [(root, -1, False)]
        sub = {node: 0 for node in adj}
        while stack:
            node, via, done = stack.pop()
            if done:
                mask = 0
                if node < self.n:
                    mask = 1 << self.leaf_elements[node]
                for other, idx in adj[node]:
                    if idx != via:
                        mask |= masks[idx]
                if via >= 0:
                    masks[via] = mask
                sub[node] = mask
            else:
                stack.append((node, via, True))
                for other, idx in adj[node]:
                    if idx != via:
                        stack.append((other, idx, False))
        return masks


@dataclass(frozen=True)
class LinearOrdering:
    """A permutation of the ground set, as element indices."""

    order: tuple[int, ...]

    def validate(self, n: int) -> None:
        if sorted(self.order) != list(range(n)):
            raise NotAPermutation(f"{self.order} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class WidthResult:
    width: int
    certificate: object  # BranchDecomposition or LinearOrdering


@dataclass(frozen=True)
class DualityVerdict:
    k: int
    kind: str
    width: int
    width_side: bool
    obstruction_side: bool
    consistent: bool
    counterexample: object = None  # SetFamily or certificate when inconsistent


def decomposition_width(sys: ConnectivitySystem, d: BranchDecomposition) -> int:
    """Maximum f over the element bipartitions induced by tree edges."""
    if d.n != sys.n:
        raise MalformedTree(f"decomposition over {d.n} leaves, system over {sys.n} elements")
    d.validate()
    if sys.n == 1:
        return 0
    return max(sys.values[mask] for mask in d.edge_sides())


def ordering_width(sys: ConnectivitySystem, ordering: LinearOrdering) -> int:
    """Max over proper prefix values and all singleton values."""
    ordering.validate(sys.n)
    best = 0
    prefix = 0
    for i, e in enumerate(ordering.order):
        best = max(best, sys.values[1 << e])
        prefix |= 1 << e
        if i < sys.n - 1:
            best = max(best, sys.values[prefix])
    return best


def _tree_iter(edges: list[tuple[int, int]], next_leaf: int, n: int, stop: int | None = None):
    if next_leaf == (stop if stop is not None else n):
        yield tuple(edges)
        return
    w = n + next_leaf - 2  # internal node ids always live above the leaf ids
    for i in range(len(edges)):
        u, v = edges[i]
        rest = edges[:i] + edges[i + 1 :]
        yield from _tree_iter(rest + [(u, w), (w, v), (next_leaf, w)], next_leaf + 1, n, stop)


def all_branch_trees(n: int):
    """Every unordered leaf-labelled ternary tree, one per insertion history."""
    if n == 1:
        yield ()
    elif n == 2:
        yield ((0, 1),)
    else:
        yield from _tree_iter([(0, n), (1, n), (2, n)], 3, n)


def _tree_width(values, n: int, edges: tuple[tuple[int, int], ...]) -> int:
    d = BranchDecomposition(n, edges, tuple(range(n)))
    return max(values[mask] for mask in d.edge_sides())


def _branch_task(args):
    values, n, prefix_edges, next_leaf = args
    best = None
    for edges in _tree_iter(list(prefix_edges), next_leaf, n):
        w = _tree_width(values, n, edges)
        if best is None or w < best[0]:
            best = (w, edges)
    return best


def branch_width(sys: ConnectivitySystem, parallel: int = 1) -> WidthResult:
    """Exact minimum width over all branch decomposition trees, with a certificate."""
    n = sys.n
    limit = gate_limit(WIDTH_MAX_N)
    if n > limit:
        raise GroundSetTooLargeForExhaustiveSearch(f"branch-width search is gated to n <= {limit}")
    if n == 1:
        return WidthResult(0, BranchDecomposition(1, (), (0,)))
    if n == 2:
        cert = BranchDecomposition(2, ((0, 1),), (0, 1))
        return WidthResult(sys.values[1], cert)
    if parallel > 1 and n >= 5:
        # fan out over the positions of the first two inserted leaves
        tasks = [
            (sys.values, n, prefix, 5)
            for prefix in _tree_iter([(0, n), (1, n), (2, n)], 3, n, stop=5)
        ]
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_branch_task, tasks))
        best = None
        for res in results:  # task order preserves sequential tie-breaking
            if res is not None and (best is None or res[0] < best[0]):
                best = res
        width, edges = best
    else:
        best = None
        for edges in all_branch_trees(n):
            w = _tree_width(sys.values, n, edges)
            if best is None or w < best[0]:
                best = (w, edges)
        width, edges = best
    return WidthResult(width, BranchDecomposition(n, edges, tuple(range(n))))


def _linear_task(args):
    values, n, first = args
    best = None
    best_order = None
    base = max(values[1 << e] for e in range(n))
    order = [first]

    def dfs(used: int, running: int):
        nonlocal best, best_order
        if len(order) == n:
            if best is None or running < best:
                best = running
                best_order = tuple(order)
            return
        for e in range(n):
            bit = 1 << e
            if used & bit:
                continue
            prefix = used | bit
            r = running
            if len(order) < n - 1:
                r = max(r, values[prefix])
            if best is not None and r >= best:
                continue
            order.append(e)
            dfs(prefix, r)
            order.pop()

    dfs(1 << first, base)
    return (best, best_order)


def linear_width(sys: ConnectivitySystem, parallel: int = 1) -> WidthResult:
    """Exact minimum ordering width via branch-and-bound over prefixes."""
    n = sys.n
    limit = gate_limit(WIDTH_MAX_N)
    if n > limit:
        raise GroundSetTooLargeForExhaustiveSearch(f"linear-width search is gated to n <= {limit}")
    if n == 1:
        return WidthResult(0, LinearOrdering((0,)))
    if parallel > 1:
        tasks = [(sys.values, n, first) for first in range(n)]
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_linear_task, tasks))
        best = None
        for width, order in results:
            if order is not None and (best is None or width < best[0]):
                best = (width, order)
        return WidthResult(best[0], LinearOrdering(best[1]))
    best: tuple[int, tuple[int, ...]] | None = None
    base = max(sys.values[1 << e] for e in range(n))
    order: list[int] = []

    def dfs(used: int, running: int):
        nonlocal best
        if len(order) == n:
            if best is None or running < best[0]:
                best = (running, tuple(order))
            return
        for e in range(n):
            bit = 1 << e
            if used & bit:
                continue
            prefix = used | bit
            r = running
            if len(order) < n - 1:
                r = max(r, sys.values[prefix])
            if best is not None and r >= best[0]:
                continue
            order.append(e)
            dfs(prefix, r)
            order.pop()

    dfs(0, base)
    return WidthResult(best[0], LinearOrdering(best[1]))


def duality_audit(sys: ConnectivitySystem, k: int, kind: str) -> DualityVerdict:
    """Compare the width side and the obstruction side of a duality, independently."""
    from .construction import EnumerationRequest, enumerate_families

    if kind not in ("ultrafilter", "tangle", "single_ultrafilter"):
        raise InvalidParameter(f"no duality audit for kind {kind!r}")
    if kind == "single_ultrafilter":
        width_result = linear_width(sys)
    else:
        width_result = branch_width(sys)
    non_principal = kind in ("ultrafilter", "single_ultrafilter")
    found = enumerate_families(
        sys, EnumerationRequest(kind, k, non_principal_only=non_principal, limit=1)
    )
    width_side = width_result.width <= k
    obstruction_side = not found  # no obstruction of order k+1 exists
    consistent = width_side == obstruction_side
    counterexample = None
    if not consistent:
        counterexample = found[0] if found else width_result.certificate
    return DualityVerdict(
        k, kind, width_result.width, width_side, obstruction_side, consistent, counterexample
    )


def chain_to_decomposition(
    sys: ConnectivitySystem, sets: list[int], k: int | None = None
) -> WidthResult:
    """Turn a single-element sequence chain into a caterpillar (linear) decomposition."""
    if not sets or sets[0] != 0 or sets[-1] != sys.full_mask:
        raise NotASequenceChain("chain must run from the empty set to the full ground set")
    order = []
    for prev, cur in zip(sets, sets[1:]):
        if prev & ~cur:
            raise NotASequenceChain(f"{prev:#x} is not contained in {cur:#x}")
        added = cur & ~prev
        if added == 0 or popcount(added) != 1:
            raise NotSingleElement(f"step from {prev:#x} to {cur:#x} does not add exactly one element")
        order.append(added.bit_length() - 1)
    if k is not None:
        for mask in sets:
            if sys.values[mask] > k:
                raise NotASequenceChain(f"member {mask:#x} has f = {sys.values[mask]} > {k}")
    ordering = LinearOrdering(tuple(order))
    return WidthResult(ordering_width(sys, ordering), ordering)
