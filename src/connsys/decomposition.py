"""Exact branch-width and linear-width with certificates, plus the duality audits."""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .construction import EnumerationRequest, enumerate_families
from .core import ConnectivitySystem, gate_limit, popcount
from .errors import (
    GroundSetTooLargeForExhaustiveSearch,
    InternalError,
    InvalidParameter,
    MalformedTree,
    NotAPermutation,
    NotASequenceChain,
    NotSingleElement,
)
from .families import SetFamily

WIDTH_MAX_N = 16


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
        # a graph on V nodes with V-1 edges is a tree iff it is connected
        if len(self.parents) != expected_nodes:
            raise MalformedTree("edges contain a cycle")

    @functools.cached_property
    def parents(self) -> dict[int, int | None]:
        """The tree hung from its highest node: each node it reaches, breadth first, to its parent.

        The highest node maps to None. On a tree that validate() accepts the
        keys are every node.
        """
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        root = max(adj, default=0)
        parents = {root: None}
        queue = [root]
        for node in queue:
            for other in adj.get(node, ()):
                if other not in parents:
                    parents[other] = node
                    queue.append(other)
        return parents

    def edge_sides(self) -> list[int]:
        """For each edge, the element bitmask of its side away from the highest node."""
        sides = dict.fromkeys(self.parents, 0)
        for node, element in enumerate(self.leaf_elements):
            sides[node] = 1 << element
        for node, parent in reversed(self.parents.items()):
            if parent is not None:
                sides[parent] |= sides[node]
        return [sides[u] if self.parents[u] == v else sides[v] for u, v in self.edges]


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
    return max(sys.f(mask) for mask in d.edge_sides())


def ordering_width(sys: ConnectivitySystem, ordering: LinearOrdering) -> int:
    """Max over proper prefix values and all singleton values."""
    ordering.validate(sys.n)
    best = 0
    prefix = 0
    for i, e in enumerate(ordering.order):
        best = max(best, sys.f(1 << e))
        prefix |= 1 << e
        if i < sys.n - 1:
            best = max(best, sys.f(prefix))
    return best


def _memoised_width(sys: ConnectivitySystem, mode: str, search) -> WidthResult:
    """Run the verified search at most once per system.

    The result depends on the function alone, so it is kept on the system
    and every later call (duality audits at each k and kind, the
    TSC-decomposition audit, the width command) returns it.
    """
    if mode not in sys.widths:
        sys.widths[mode] = search(sys)
    return sys.widths[mode]


def branch_width(sys: ConnectivitySystem) -> WidthResult:
    """Exact branch-width with a certificate, by a bottom-up subset DP.

    Leaf x = n-1 hangs off the root of a rooted binary tree on X - x. For a
    set S of its elements, h(S) is the least possible maximum of f over the
    edge above S and every edge below it: f(S) for a singleton, else the larger of f(S) and the
    minimum over splits S = B + C of max(h(B), h(C)), where B holds the lowest
    element of S (Robertson & Seymour, Graph Minors X). The width is
    h(X - x). Computed once per system; the size gate is checked on every call.
    """
    limit = gate_limit(WIDTH_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForExhaustiveSearch(f"branch-width search is gated to n <= {limit}")
    return _memoised_width(sys, "branch", _branch_width_dp)


def _branch_width_dp(sys: ConnectivitySystem) -> WidthResult:
    n = sys.n
    if n == 1:
        return WidthResult(0, BranchDecomposition(1, (), (0,)))
    if n == 2:
        cert = BranchDecomposition(2, ((0, 1),), (0, 1))
        return WidthResult(sys.f(1), cert)
    root = (1 << (n - 1)) - 1
    h = sys.array[: root + 1].tolist()
    split = [0] * (root + 1)
    top = sys.max_value + 1  # above every h value, so each set takes its first split
    for s in range(3, root + 1):
        low = s & -s
        rest = s ^ low
        if not rest:
            continue
        best = top
        t = 0  # submasks of rest in ascending order, so ties keep the lowest B
        while t != rest:
            b = low | t
            c = rest ^ t
            t = (t - rest) & rest
            hb = h[b]
            if hb < best:
                hc = h[c]
                if hc < best:
                    best = hb if hb > hc else hc
                    split[s] = b
        if best > h[s]:
            h[s] = best
    width = h[root]

    edges: list[tuple[int, int]] = []
    next_node = n

    def build(s: int) -> int:
        nonlocal next_node
        if s & (s - 1) == 0:
            return s.bit_length() - 1
        node = next_node
        next_node += 1
        b = split[s]
        edges.append((node, build(b)))
        edges.append((node, build(s ^ b)))
        return node

    edges.append((n - 1, build(root)))
    cert = BranchDecomposition(n, tuple(edges), tuple(range(n)))
    got = decomposition_width(sys, cert)
    if got != width:
        raise InternalError(f"branch-width certificate re-evaluates to {got}, not {width}")
    return WidthResult(width, cert)


def linear_width(sys: ConnectivitySystem) -> WidthResult:
    """Exact linear-width with the lexicographically first optimal ordering.

    f(empty) = f(X) = 0, so the width is the larger of the largest singleton
    value and the least k with a sequence chain, whose chain is the ordering.
    The singleton bound is tried first, then the values of f above it by
    binary search: at most n + 1 layered searches. Computed once per system.
    """
    return _memoised_width(sys, "linear", _least_chain_width)


def _least_chain_width(sys: ConnectivitySystem) -> WidthResult:
    width = max(sys.f(1 << e) for e in range(sys.n))
    sets = _sequence_chain(sys, width)
    if sets is None:  # max f always has a chain
        above = np.sort(sys.array[sys.array > width])
        above = above[np.append(True, above[1:] != above[:-1])].tolist()  # the distinct values, ascending
        width = above[bisect.bisect_left(above, True, key=lambda k: _sequence_chain(sys, k) is not None)]
        sets = _sequence_chain(sys, width)
    result = chain_to_decomposition(sys, sets)
    if result.width != width:
        raise InternalError(f"linear-width certificate re-evaluates to {result.width}, not {width}")
    return result


def _sequence_chain(sys: ConnectivitySystem, k: int) -> list[int] | None:
    """The prefixes of the lexicographically first ordering with every prefix at f <= k, or None.

    A FIFO layered search in which each set keeps the first set that reaches
    it, so by induction each layer is in the lexicographic order of its sets'
    first orderings.
    """
    if sys.f(0) > k:
        return None
    eff = sys.array <= k
    bits = 1 << np.arange(sys.n, dtype=np.int64)
    first = np.empty(1 << sys.n, dtype=np.int64)  # first[S]: where S is first reached in its layer
    layers = [np.zeros(1, dtype=np.int64)]  # the sets of each size reached, in queue order
    parents = []  # parents[i][j]: index in layers[i] of the set that reached layers[i + 1][j]
    for _ in range(sys.n):
        layer = layers[-1]
        cand = layer[:, None] | bits  # row-major: by queue position, then by added element
        keep = np.flatnonzero((cand != layer[:, None]) & eff[cand])
        if not keep.size:
            return None
        reached = cand.ravel()[keep]
        order = np.arange(reached.size)
        first[reached] = reached.size  # above every position, then lowered to the first
        np.minimum.at(first, reached, order)
        new = first[reached] == order  # first discoveries, in the order a FIFO queue makes them
        layers.append(reached[new])
        parents.append(keep[new] // sys.n)
    path, at = [sys.full_mask], 0  # the last layer is X alone
    for layer, parent in zip(reversed(layers[:-1]), reversed(parents)):
        at = parent[at]
        path.append(int(layer[at]))
    return path[::-1]


def duality_audit(sys: ConnectivitySystem, k: int, kind: str) -> DualityVerdict:
    """Compare the width side and the obstruction side of a duality, independently."""
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
            if sys.f(mask) > k:
                raise NotASequenceChain(f"member {mask:#x} has f = {sys.f(mask)} > {k}")
    ordering = LinearOrdering(tuple(order))
    return WidthResult(ordering_width(sys, ordering), ordering)
