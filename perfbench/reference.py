"""Reference computations written from the definitions, sharing no code with connsys.

Everything here works on plain data: a value table indexed by subset bitmask
(bit i set means element i is in the subset), member masks, edge lists and
node/edge lists of trees.  The benchmark compares the program's answers with
these, so none of it may import connsys.

Axiom readings follow the literal statements:

* filter: non-empty; Q0 members have f <= k; Q1 an intersection of two members
  with f <= k is a member; Q2 a superset of a member with f <= k is a member;
  Q3 the empty set is not a member.
* ultrafilter: a filter with Q4, for every A with f(A) <= k, A or X-A is a
  member.
* single_ultrafilter: Q1 replaced by QS1, for a member A and an element e with
  f({e}) <= k, A-e is a member whenever f(A-e) <= k.
* tangle: non-empty; T1 members have f <= k; T2 as Q4; T3 no three members
  (repetition allowed) have union X; T4 no member is X minus one element.
"""

from __future__ import annotations

import numpy as np

ROW_CHUNK = 256


# ---------------------------------------------------------------- cut values


def vertex_cut_values(n: int, edges) -> np.ndarray:
    """f(S) = number of edges with exactly one end in the vertex set S."""
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for u, v in edges:
        out += ((masks >> u) ^ (masks >> v)) & 1
    return out


def edge_cut_values(m: int, vertices: int, edges) -> np.ndarray:
    """f(S) = number of vertices touching an edge in S and an edge outside S."""
    masks = np.arange(1 << m, dtype=np.int64)
    full = (1 << m) - 1
    out = np.zeros(1 << m, dtype=np.int64)
    for v in range(vertices):
        inc = 0
        for i, (a, b) in enumerate(edges):
            if v in (a, b):
                inc |= 1 << i
        if inc:
            out += ((masks & inc) != 0) & (((full ^ masks) & inc) != 0)
    return out


def violates_submodularity(values, a: int, b: int) -> bool:
    """The literal inequality f(A) + f(B) >= f(A & B) + f(A | B) fails for (A, B)."""
    return int(values[a]) + int(values[b]) < int(values[a & b]) + int(values[a | b])


# ------------------------------------------------------------------- widths


def branch_width(values, n: int) -> int:
    """Minimum over ternary trees of the largest f across a tree edge.

    h(S) is the best width of a rooted binary tree with leaf set S counting
    every node set but the root; subdividing any edge of a ternary tree gives
    such a tree for the whole ground set, and f(S) = f(X-S) makes the root
    split (S, X-S) count once.  So the branch-width is h(X).
    """
    if n == 1:
        return 0
    vals = [int(v) for v in values]
    h = [0] * (1 << n)
    for s in range(1, 1 << n):
        if s & (s - 1) == 0:
            continue  # a leaf has no edge below it
        low = s & -s
        rest = s ^ low
        best = None
        sub = rest
        while True:  # B = low + sub, C = the rest; B always holds the low bit
            b = low | sub
            c = s ^ b
            if c:
                w = max(vals[b], vals[c], h[b], h[c])
                if best is None or w < best:
                    best = w
            if sub == 0:
                break
            sub = (sub - 1) & rest
        h[s] = best
    return h[(1 << n) - 1]


def linear_width(values, n: int) -> int:
    """Minimum over orderings of max(every singleton value, every proper prefix value).

    p(S) = min over e in S of max(p(S-e), f(S)) is the best largest prefix value
    over orderings of S; the last prefix (the whole ground set) does not count.
    """
    vals = [int(v) for v in values]
    singles = max(vals[1 << e] for e in range(n))
    full = (1 << n) - 1
    if n == 1:
        return max(singles, 0)
    p = [0] * (1 << n)
    for s in range(1, full):
        best = None
        rest = s
        while rest:
            e = rest & -rest
            w = p[s ^ e]
            if best is None or w < best:
                best = w
            rest ^= e
        p[s] = max(best, vals[s])
    last = min(p[full ^ (1 << e)] for e in range(n))
    return max(singles, last)


def tree_edge_sides(n: int, edges, leaf_elements) -> list[int] | None:
    """Element mask on one side of each tree edge, or None if not a ternary tree.

    Nodes 0..n-1 are leaves carrying leaf_elements[i]; the tree must have
    2n-2 nodes (2 for n = 2), leaves of degree 1, other nodes of degree 3, and
    be connected.
    """
    if sorted(leaf_elements) != list(range(n)):
        return None
    if n == 1:
        return [] if not edges else None
    nodes = 2 * n - 2 if n >= 3 else 2
    if len(edges) != nodes - 1:
        return None
    adj = {v: [] for v in range(nodes)}
    for u, v in edges:
        if u not in adj or v not in adj or u == v:
            return None
        adj[u].append(v)
        adj[v].append(u)
    for v in range(nodes):
        if len(adj[v]) != (1 if v < n else 3):
            return None
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nodes:
        return None
    sides = []
    for u, v in edges:
        # the leaves reachable from v once edge (u, v) is removed
        mask = 0
        seen = {u, v}
        stack = [v]
        while stack:
            x = stack.pop()
            if x < n:
                mask |= 1 << leaf_elements[x]
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sides.append(mask)
    return sides


def tree_width(values, n: int, edges, leaf_elements) -> int | None:
    """Width of a branch decomposition given as edges and leaf labels; None if malformed."""
    sides = tree_edge_sides(n, edges, leaf_elements)
    if sides is None:
        return None
    return max((int(values[s]) for s in sides), default=0)


def ordering_width(values, n: int, order) -> int | None:
    """max(every singleton value, every proper prefix value); None if not a permutation."""
    if sorted(order) != list(range(n)):
        return None
    best = max(int(values[1 << e]) for e in range(n))
    prefix = 0
    for e in order[:-1]:
        prefix |= 1 << e
        best = max(best, int(values[prefix]))
    return best


# ------------------------------------------------------------------ families


class Space:
    """One value table and bound k, with the lookups every axiom check needs."""

    def __init__(self, values, n: int, k: int):
        self.values = np.asarray(values, dtype=np.int64)
        self.n = n
        self.k = k
        self.full = (1 << n) - 1
        self.eff = self.values <= k
        self.eff_masks = np.nonzero(self.eff)[0].astype(np.int64)

    def lookup(self, members) -> tuple[np.ndarray, np.ndarray]:
        arr = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
        inside = np.zeros(1 << self.n, dtype=bool)
        inside[arr] = True
        return arr, inside


def _q1_holds(sp: Space, arr: np.ndarray, inside: np.ndarray) -> bool:
    for i in range(0, len(arr), ROW_CHUNK):
        meet = arr[i : i + ROW_CHUNK, None] & arr[None, :]
        if np.any(sp.eff[meet] & ~inside[meet]):
            return False
    return True


def _q2_holds(sp: Space, arr: np.ndarray, inside: np.ndarray) -> bool:
    outside_eff = sp.eff_masks[~inside[sp.eff_masks]]
    if outside_eff.size == 0:
        return True
    for i in range(0, len(arr), ROW_CHUNK):
        rows = arr[i : i + ROW_CHUNK, None]
        if np.any((rows & ~outside_eff[None, :]) == 0):
            return False  # an efficient superset of a member is missing
    return True


def _q4_holds(sp: Space, inside: np.ndarray) -> bool:
    e = sp.eff_masks
    return bool(np.all(inside[e] | inside[sp.full ^ e]))


def _up_closed(sp: Space, inside: np.ndarray) -> np.ndarray:
    """up[S]: some member contains S (superset zeta transform)."""
    up = inside.copy()
    masks = np.arange(1 << sp.n, dtype=np.int64)
    for i in range(sp.n):
        without = (masks >> i & 1) == 0
        up[masks[without]] |= up[masks[without] | (1 << i)]
    return up


def family_holds(values, n: int, members, k: int, kind: str) -> bool:
    """Literal axiom check for filter, ultrafilter, single_ultrafilter and tangle."""
    if not members:
        return False
    sp = Space(values, n, k)
    arr, inside = sp.lookup(members)
    if not np.all(sp.eff[arr]):
        return False  # Q0 / T1
    if kind == "tangle":
        if not _q4_holds(sp, inside):
            return False  # T2
        up = _up_closed(sp, inside)
        for i in range(0, len(arr), ROW_CHUNK):
            union = arr[i : i + ROW_CHUNK, None] | arr[None, :]
            if np.any(up[sp.full ^ union]):
                return False  # T3: a third member covers the rest
        return not any(inside[sp.full ^ (1 << e)] for e in range(n))  # T4
    if kind not in ("filter", "ultrafilter", "single_ultrafilter"):
        raise ValueError(f"no reference check for kind {kind!r}")
    if inside[0]:
        return False  # Q3
    if kind == "single_ultrafilter":
        for e in range(n):
            if sp.eff[1 << e]:
                rest = arr & ~(1 << e)
                if np.any(sp.eff[rest] & ~inside[rest]):
                    return False  # QS1
    elif not _q1_holds(sp, arr, inside):
        return False
    if not _q2_holds(sp, arr, inside):
        return False
    return kind == "filter" or _q4_holds(sp, inside)


def all_families(values, n: int, k: int, kind: str) -> set[frozenset[int]]:
    """Every ultrafilter, single_ultrafilter or tangle of order k, by a search from the axioms.

    Each efficient set is decided in or out, smallest first, and every
    decision is followed by what the axioms force: Q4/T2 (A or X-A is in), Q3
    (the empty set is out), Q2 (the efficient supersets of a member are in),
    Q1 (the efficient meet of two members is in), QS1 (A-e is in with A when
    f({e}) <= k), T3 (no set containing X minus the union of two members is
    in) and T4 (no X minus one element is in).  A decision whose consequences
    contradict each other is abandoned; every complete assignment is
    re-checked with family_holds.
    """
    vals = np.asarray(values, dtype=np.int64)
    full = (1 << n) - 1
    eff = (vals <= k).tolist()
    sets = sorted((int(m) for m in np.nonzero(vals <= k)[0]), key=lambda m: (bin(m).count("1"), m))
    supersets = [[c for c in sets if c & m == m] for m in range(1 << n)]
    subsets = {m: [c for c in sets if c & ~m == 0] for m in sets}
    singles = [1 << e for e in range(n) if eff[1 << e]]
    filters = kind != "tangle"

    def consequences(m: int, inside: bool, members: list[int]) -> list[tuple[int, bool]]:
        if not inside:
            out = [(full ^ m, True)]
            if filters:
                out += [(c, False) for c in subsets[m]]
            if kind == "single_ultrafilter":
                out += [(m | s, False) for s in singles if not m & s]
            return out
        out = []
        if filters:
            out += [(c, True) for c in supersets[m]]
        if kind == "ultrafilter":
            out += [(m & b, True) for b in members if eff[m & b]]
        elif kind == "single_ultrafilter":
            out += [(m ^ s, True) for s in singles if m & s and eff[m ^ s]]
        else:
            for b in members:
                out += [(c, False) for c in supersets[full & ~(m | b)]]
        return out

    def assign(state: dict, members: list[int], todo: list[tuple[int, bool]]) -> bool:
        while todo:
            m, inside = todo.pop()
            if not eff[m]:
                if inside:
                    return False
                continue
            if m in state:
                if state[m] != inside:
                    return False
                continue
            state[m] = inside
            if inside:
                members.append(m)
            todo += consequences(m, inside, members)
        return True

    found: set[frozenset[int]] = set()

    def search(state: dict, members: list[int]) -> None:
        free = next((m for m in sets if m not in state), None)
        if free is None:
            if members and family_holds(vals, n, members, k, kind):
                found.add(frozenset(members))
            return
        for inside in (True, False):
            st, mem = dict(state), list(members)
            if assign(st, mem, [(free, inside)]):
                search(st, mem)

    start: list[tuple[int, bool]] = [(0, False)] if filters else [(full, False)]
    if kind == "tangle":
        start += [(full ^ (1 << e), False) for e in range(n)]
    state: dict[int, bool] = {}
    members: list[int] = []
    if assign(state, members, start):
        search(state, members)
    return found


def up_closure(values, n: int, bases, k: int) -> frozenset[int]:
    """Every set with f <= k that contains one of bases."""
    vals = np.asarray(values, dtype=np.int64)
    eff = np.nonzero(vals <= k)[0].astype(np.int64)
    keep = np.zeros(eff.size, dtype=bool)
    for b in bases:
        keep |= (eff & b) == b
    return frozenset(int(m) for m in eff[keep])


def generated_members(values, n: int, subbase, k: int) -> frozenset[int] | None:
    """Up-closure of the efficient finite intersections of a subbase; None if one is empty.

    The intersections of finitely many subbase members are found by
    intersecting pairs until nothing new appears (a fixpoint).
    """
    meets = set(subbase)
    frontier = set(subbase)
    while frontier:
        new = {a & b for a in frontier for b in meets} - meets
        meets |= new
        frontier = new
    if 0 in meets:
        return None
    vals = np.asarray(values, dtype=np.int64)
    return up_closure(vals, n, [c for c in meets if vals[c] <= k], k)


def generated_filter(values, n: int, subbase, k: int):
    """The filter generated by a subbase.

    Returns ("empty", None) if some finite intersection is empty,
    ("escape", (a, b, a & b)) if two generated sets meet in an efficient set
    that is not generated, else ("ok", members).
    """
    members = generated_members(values, n, subbase, k)
    if members is None:
        return ("empty", None)
    sp = Space(values, n, k)
    arr, inside = sp.lookup(members)
    for i in range(0, len(arr), ROW_CHUNK):
        block = arr[i : i + ROW_CHUNK]
        meet = block[:, None] & arr[None, :]
        bad = np.argwhere(sp.eff[meet] & ~inside[meet])
        if bad.size:
            r, c = bad[0]
            return ("escape", (int(block[r]), int(arr[c]), int(meet[r, c])))
    return ("ok", members)


# ------------------------------------------------------------ chains, orders


def is_chain(values, k: int, sets) -> bool:
    """Strictly nested sets, each with f <= k."""
    for prev, cur in zip(sets, sets[1:]):
        if prev == cur or prev & ~cur:
            return False
    return all(int(values[s]) <= k for s in sets)


def is_sequence_chain(values, n: int, k: int, sets) -> bool:
    """A chain from the empty set to the ground set adding one element per step."""
    if not sets or sets[0] != 0 or sets[-1] != (1 << n) - 1:
        return False
    for prev, cur in zip(sets, sets[1:]):
        step = cur & ~prev
        if prev & ~cur or step == 0 or step & (step - 1):
            return False
    return all(int(values[s]) <= k for s in sets)


def is_antichain(values, k: int, sets) -> bool:
    """Pairwise incomparable non-empty sets, each with f <= k."""
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if a & ~b == 0 or b & ~a == 0:
                return False
    return all(s != 0 and int(values[s]) <= k for s in sets)


def sequence_chain_exists(values, n: int, k: int) -> bool:
    """Whether some chain from the empty set to X adding one element per step has all f <= k."""
    vals = np.asarray(values, dtype=np.int64)
    eff = vals <= k
    masks = np.arange(1 << n, dtype=np.int64)
    card = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        card += masks >> i & 1
    reach = np.zeros(1 << n, dtype=bool)
    reach[0] = eff[0]
    for size in range(1, n + 1):
        layer = masks[card == size]
        got = np.zeros(layer.size, dtype=bool)
        for i in range(n):
            has = (layer >> i & 1) == 1
            got[has] |= reach[layer[has] ^ (1 << i)]
        reach[layer] = got & eff[layer]
    return bool(reach[(1 << n) - 1])
