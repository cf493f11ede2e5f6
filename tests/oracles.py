"""Independent re-implementations used as test oracles.

Everything here is written directly from the axiom and definition texts with
plain nested loops, on purpose sharing no helper code with the library. The
few oracles that must reach n = 12 or more read the definitions over whole
numpy arrays instead, still in plain mask order. `planted_table` makes
seeded tables that break submodularity on chosen local pairs only.
"""

import random
from functools import lru_cache
from itertools import combinations

import numpy as np


def bits(mask):
    return bin(mask).count("1")


def oracle_family_holds(values, n, members, k, kind):
    """Literal re-quantification of the axiom list of each kind."""
    full = (1 << n) - 1
    F = set(members)
    subsets = list(range(1 << n))

    def f(m):
        return values[m]

    if kind == "pi_system":
        if not F:
            return False
        for A in F:
            for B in F:
                if f(A & B) <= k and (A & B) not in F:
                    return False
        return True

    if kind == "superfilter":
        if not F:
            return False
        for A in F:
            if f(A) > k:
                return False
        for A in F:
            for B in subsets:
                if (A | B) == B and f(B) <= k and B not in F:
                    return False
        for A in subsets:
            for B in subsets:
                if f(A) <= k and f(B) <= k and (A | B) in F:
                    if A not in F and B not in F:
                        return False
        return True

    if kind == "prefilter":
        if not F or 0 in F:
            return False
        for A in F:
            if f(A) > k:
                return False
        for B in F:
            for C in F:
                if not any(A | (B & C) == (B & C) and f(A) <= k for A in F):
                    return False
        return True

    if kind == "tangle":
        if not F:
            return False
        for A in F:
            if f(A) > k:
                return False
        for A in subsets:
            if f(A) <= k and A not in F and (full ^ A) not in F:
                return False
        for A in F:
            for B in F:
                for C in F:
                    if A | B | C == full:
                        return False
        for i in range(n):
            if (full ^ (1 << i)) in F:
                return False
        return True

    if kind in ("filter", "ultrafilter", "single_ultrafilter"):
        if not F:
            return False
        for A in F:
            if f(A) > k:
                return False
        if kind == "single_ultrafilter":
            for A in F:
                for e in range(n):
                    rest = A & ~(1 << e)
                    if f(1 << e) <= k and f(rest) <= k and rest not in F:
                        return False
        else:
            for A in F:
                for B in F:
                    if f(A & B) <= k and (A & B) not in F:
                        return False
        for A in F:
            for B in subsets:
                if (A | B) == B and f(B) <= k and B not in F:
                    return False
        if 0 in F:
            return False
        if kind != "filter":
            for A in subsets:
                if f(A) <= k and A not in F and (full ^ A) not in F:
                    return False
        return True

    if kind == "majority_system":
        return oracle_majority_violation(values, n, members, k) is None

    if kind in (
        "weak_filter",
        "quasi_filter",
        "ultra_prefilter",
        "ultrafilter_subbase",
        "sigma_filter",
        "lambda_system",
        "union_closed_system",
        "independence_system",
    ):
        return oracle_first_violation(values, n, members, k, kind) is None

    raise ValueError(kind)


def _submasks(mask):
    """The submasks of mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _sub_collection_values(ordered, joined):
    """Every value over the non-empty sub-collections of the members; joined(values, m) gives those that take m in."""
    values = set()
    for m in ordered:
        values |= joined(values, m) | {m}
    return values


def _least_pair(values, fits):
    """The least pair u < v of values with fits(u, v), or None."""
    ordered = sorted(values)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            if fits(u, v):
                return u, v
    return None


def oracle_first_violation(values, n, members, k, kind):
    """The first violated axiom of the kind and its witness, by literal scans, or None.

    The axioms are checked in the kind's fixed order; each scan returns its
    first witness in ascending mask order, at most three sets. SIF3 and L3
    ask that every efficient value over the sub-collections of the members
    (intersections; unions of pairwise disjoint members) be a member: the
    witness is the lowest efficient non-member w among the values with the
    least pair u < v of values that gives it (both other than w with
    u & v = w; non-empty and disjoint with u | v = w).
    """
    full = (1 << n) - 1
    F = set(members)
    ordered = sorted(F)
    keff = [m for m, value in enumerate(values) if value <= k]

    def eff(m):
        return values[m] <= k

    def nonempty():
        return None if F else ()

    def q0():
        return next(((a,) for a in ordered if not eff(a)), None)

    def q1():
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                if eff(a & b) and (a & b) not in F:
                    return (a, b, a & b)
        return None

    def q2():
        for a in ordered:
            for b in keff:
                if b & a == a and b not in F:
                    return (a, b)
        return None

    def q3():
        return (0,) if 0 in F else None

    def q4():
        return next(((a, full ^ a) for a in keff if a not in F and (full ^ a) not in F), None)

    def qw1():
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                if a & b == 0:
                    return (a, b)
        return None

    def qq1():
        # over all pairs of subsets, not only efficient ones
        for a in range(1 << n):
            if a in F:
                continue
            for b in range(1 << n):
                if b not in F and (a | b) in F:
                    return (a, b, a | b)
        return None

    def qs1():
        for a in ordered:
            for i in range(n):
                e = 1 << i
                if eff(e) and eff(a & ~e) and (a & ~e) not in F:
                    return (a, e)
        return None

    def t3():
        for i, a in enumerate(ordered):
            for j in range(i, len(ordered)):
                for d in ordered[j:]:
                    if a | ordered[j] | d == full:
                        return (a, ordered[j], d)
        return None

    def t4():
        return next(((full ^ (1 << i),) for i in range(n) if (full ^ (1 << i)) in F), None)

    def p3():
        holds_eff = {}  # meet -> whether an efficient member lies inside it
        for i, b in enumerate(ordered):
            for d in ordered[i:]:
                meet = b & d
                if meet not in holds_eff:
                    holds_eff[meet] = any(a & ~meet == 0 and eff(a) for a in F)
                if not holds_eff[meet]:
                    return (b, d)
        return None

    def p4():
        for a in keff:
            if not any((b & ~a == 0 or b & a == 0) and eff(b) for b in F):
                return (a,)
        return None

    def has_full():
        return None if full in F else (full,)

    def l2():
        return next(((a, full ^ a) for a in ordered if eff(full ^ a) and (full ^ a) not in F), None)

    def closed(joined, fits):
        closure = _sub_collection_values(ordered, joined)
        bad = [w for w in sorted(closure) if eff(w) and w not in F]
        if not bad:
            return None
        w = bad[0]
        return (*_least_pair(closure, lambda u, v: fits(u, v, w)), w)

    def l3():
        return closed(
            lambda values, m: {t | m for t in values if not t & m},
            lambda u, v, w: u and v and u & v == 0 and u | v == w,
        )

    def sif3():
        return closed(lambda values, m: {t & m for t in values}, lambda u, v, w: w not in (u, v) and u & v == w)

    def suf3():
        for a in keff:
            for b in keff:
                if (a | b) in F and a not in F and b not in F:
                    return (a, b, a | b)
        return None

    def uc1():
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                if eff(a | b) and (a | b) not in F:
                    return (a, b, a | b)
        return None

    def in1():
        return None if 0 in F else (0,)

    def in2():
        for a in ordered:
            for sub in _submasks(a):
                if eff(sub) and sub not in F:
                    return (a, sub)
        return None

    filter_head = [("nonempty", nonempty), ("Q0", q0)]
    axioms = {
        "filter": filter_head + [("Q1", q1), ("Q2", q2), ("Q3", q3)],
        "ultrafilter": filter_head + [("Q1", q1), ("Q2", q2), ("Q3", q3), ("Q4", q4)],
        "weak_filter": filter_head + [("QW1'", qw1), ("Q2", q2), ("Q3", q3)],
        "quasi_filter": filter_head + [("QQ1'", qq1), ("Q2", q2), ("Q3", q3)],
        "single_filter": filter_head + [("QS1", qs1), ("Q2", q2), ("Q3", q3)],
        "single_ultrafilter": filter_head + [("QS1", qs1), ("Q2", q2), ("Q3", q3), ("Q4", q4)],
        "tangle": [("nonempty", nonempty), ("T1", q0), ("T2", q4), ("T3", t3), ("T4", t4)],
        "prefilter": [("nonempty", nonempty), ("P1", q3), ("P2", q0), ("P3", p3)],
        "ultra_prefilter": [("nonempty", nonempty), ("P1", q3), ("P2", q0), ("P3", p3), ("P4", p4)],
        "filter_subbase": [("SB1", nonempty), ("SB2", q3), ("SB3", q0)],
        "ultrafilter_subbase": [("SB1", nonempty), ("SB2", q3), ("SB3", q0), ("SB4", p4)],
        "pi_system": [("PI1", nonempty), ("PI2", q1)],
        "lambda_system": [("L1", has_full), ("L2", l2), ("L3", l3)],
        "superfilter": [("nonempty", nonempty), ("SUF1", q0), ("SUF2", q2), ("SUF3", suf3)],
        "sigma_filter": [("SIF1", has_full), ("SIF2", q2), ("SIF3", sif3)],
        "closure_system": [("CL1", q1), ("CL2", has_full)],
        "union_closed_system": [("UC1", uc1), ("UC2", lambda: in1() or has_full())],
        "independence_system": [("IN1", in1), ("IN2", in2)],
    }
    if kind == "majority_system":
        return oracle_majority_violation(values, n, members, k)
    for label, scan in axioms[kind]:
        witness = scan()
        if witness is not None:
            return label, witness
    return None


def oracle_majority_violation(values, n, members, k):
    """The first violated majority axiom and its witness, by the literal MA1-MA3 scans, or None.

    MA1: of every efficient A, A or X - A is a member. MA2: two members, one
    of them possibly both, are disjoint only when complementary. MA3: for a
    member A, F inside A and G outside A with |F| <= |G|, an efficient
    (A - F) | G is a member. Witnesses are the first in ascending mask order.
    """
    full = (1 << n) - 1
    F = set(members)
    ordered = sorted(F)
    for A in range(1 << n):
        if values[A] <= k and A not in F and (full ^ A) not in F:
            return "MA1", (A, full ^ A)
    for i, A in enumerate(ordered):
        for B in ordered[i:]:
            if A & B == 0 and B != full ^ A:
                return "MA2", (A, B)
    for A in ordered:
        for f_set in _submasks(A):
            for g_set in _submasks(full ^ A):
                if bits(f_set) > bits(g_set):
                    continue
                moved = (A & ~f_set) | g_set
                if values[moved] <= k and moved not in F:
                    return "MA3", (A, f_set, g_set)
    return None


def oracle_ft1(members):
    """Whether every three members, repeats allowed, have a common element."""
    F = sorted(set(members))
    for i in range(len(F)):
        for j in range(i, len(F)):
            for l in range(j, len(F)):
                if F[i] & F[j] & F[l] == 0:
                    return False
    return True


def oracle_fip(members, a_mask):
    """Whether no intersection of some of the members and a_mask is empty, from their closure under intersection."""
    closed = set(members) | {a_mask}
    while True:
        grown = {A & B for A in closed for B in closed} - closed
        if not grown:
            return 0 not in closed
        closed |= grown


def oracle_cut_values(kind, n, vertices, edges):
    """Cut values of every subset of the n-element ground set, straight from the definitions.

    kind "vertex": the ground set is the vertices; f(S) is the number of edges
    with exactly one end in S.  kind "edge": the ground set is the edges; f(F)
    is the number of vertices that touch an edge in F and an edge outside F.
    """
    values = []
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        if kind == "vertex":
            values.append(sum(1 for (u, v) in edges if (u in inside) != (v in inside)))
        elif kind == "edge":
            count = 0
            for w in range(vertices):
                touches_in = any(w in edges[i] for i in range(n) if i in inside)
                touches_out = any(w in edges[i] for i in range(n) if i not in inside)
                if touches_in and touches_out:
                    count += 1
            values.append(count)
        else:
            raise ValueError(kind)
    return values


def oracle_submodularity_witness(values, n):
    """The first (A, B) in row-major order with f(A) + f(B) < f(A & B) + f(A | B), or None.

    Each row A is tested against every B at once in int64, which holds the
    sum of two values below 2^62; fast enough for n = 12.
    """
    f = np.asarray(values, dtype=np.int64)
    masks = np.arange(1 << n)
    for a in range(1 << n):
        bad = np.flatnonzero(f[a] + f < f[a & masks] + f[a | masks])
        if bad.size:
            return a, int(bad[0])
    return None


def oracle_first_local_violation(values, n):
    """The first i < j, then A without i and j, in increasing order, with
    f(A+i) + f(A+j) < f(A) + f(A+i+j), as the pair (A+i, A+j); or None."""
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(1 << n):
                if a >> i & 1 or a >> j & 1:
                    continue
                ai, aj = a | 1 << i, a | 1 << j
                if values[ai] + values[aj] < values[a] + values[ai | aj]:
                    return (ai, aj)
    return None


def oracle_local_scan(values, n):
    """oracle_first_local_violation over whole arrays in mask order, fast enough for n = 18.

    For each i < j in turn, every A without i and j is tested at once in int64.
    """
    f = np.asarray(values, dtype=np.int64)
    masks = np.arange(1 << n)
    for i in range(n):
        without_i = masks[(masks >> i & 1) == 0]
        for j in range(i + 1, n):
            a = without_i[(without_i >> j & 1) == 0]
            ai, aj = a | 1 << i, a | 1 << j
            bad = np.flatnonzero(f[ai] + f[aj] < f[a] + f[ai | aj])
            if bad.size:
                return int(ai[bad[0]]), int(aj[bad[0]])
    return None


def planted_table(n, pairs, seed):
    """A symmetric table whose broken local pairs all have their bits in pairs.

    f(S) = 2 |S| (n - |S|) minus the number of pairs (a, b) that S separates
    is submodular, with slack 2 on the local pairs whose bits are in pairs and
    4 on all others. For each (a, b), f(T) and f(X - T) are lowered by 3 for a
    random T that holds a, not b, and does not separate the other pairs. That
    breaks the local pairs with bits (a, b) that have T or X - T as a side,
    and no other: the lowered sets are more than two elements apart, so no
    local pair has two of them as sides. Every value stays natural from n = 3 on.
    """
    rng = random.Random(seed)
    full = (1 << n) - 1
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.bitwise_count(masks).astype(np.int64)
    values = 2 * size * (n - size)
    for a, b in pairs:
        values -= (masks >> a ^ masks >> b) & 1
    lowered = []
    for a, b in pairs:
        while True:
            t = (rng.getrandbits(n) | 1 << a) & ~(1 << b)
            if all(t >> c & 1 == t >> d & 1 for c, d in pairs if (c, d) != (a, b)) and all(
                bits(t ^ u) > 2 and bits(full ^ t ^ u) > 2 for u in lowered
            ):
                break
        lowered.append(t)
        values[t] -= 3
        values[full ^ t] -= 3
    return values


def oracle_vertex_cut_array(vertices, edges):
    """oracle_cut_values("vertex", ...) over whole arrays: each edge adds 1 where exactly one end is in S."""
    masks = np.arange(1 << vertices)
    values = np.zeros(1 << vertices, dtype=np.int64)
    for u, v in edges:
        values += (masks >> u ^ masks >> v) & 1
    return values


def oracle_branch_width(values, n):
    """Exact branch-width by recursive bipartition over subsets."""
    if n == 1:
        return 0
    if n == 2:
        return values[1]
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def cost(S):
        if bits(S) == 1:
            return values[S]
        best = None
        sub = (S - 1) & S
        while sub:
            other = S ^ sub
            if other and sub < other:
                c = max(cost(sub), cost(other))
                if best is None or c < best:
                    best = c
            sub = (sub - 1) & S
        return max(values[S], best)

    best = None
    low = 1  # the part containing element 0, to kill permutation symmetry
    for s1 in range(1, 1 << n):
        if not s1 & low or s1 == full:
            continue
        rest = full ^ s1
        rlow = rest & -rest
        s2 = rest
        while s2:
            if s2 & rlow and s2 != rest:
                s3 = rest ^ s2
                c = max(cost(s1), cost(s2), cost(s3))
                if best is None or c < best:
                    best = c
            s2 = (s2 - 1) & rest
    return best


def oracle_branch_trees(n):
    """Every leaf-labelled ternary tree on the leaves 0..n-1, once each, as an edge tuple.

    Leaf i is node i; the internal nodes are n..2n-3. For n >= 3 the trees grow
    from the star on leaves 0, 1, 2: leaf j subdivides each edge in turn with
    the new internal node n+j-2, which gives (2n-5)!! trees.
    """
    if n == 1:
        return [()]
    if n == 2:
        return [((0, 1),)]
    trees = [[(0, n), (1, n), (2, n)]]
    for leaf in range(3, n):
        w = n + leaf - 2
        grown = []
        for edges in trees:
            for i in range(len(edges)):
                u, v = edges[i]
                grown.append(edges[:i] + edges[i + 1 :] + [(u, w), (w, v), (leaf, w)])
        trees = grown
    return [tuple(edges) for edges in trees]


def oracle_tree_width(values, n, edges):
    """Largest value of the leaf set on one side of an edge, over every edge of the tree."""
    neighbours = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    width = 0
    for u, v in edges:
        side = 0
        seen = {u, v}
        stack = [v]
        while stack:
            node = stack.pop()
            if node < n:
                side |= 1 << node
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        width = max(width, values[side])
    return width


def oracle_linear_width(values, n):
    """Exact linear width and the lexicographically first ordering within it, as (width, order).

    A subset DP from the full set downward: h(P) is the least possible maximum
    of f over P and the proper prefixes after it, with h(X) = 0. The width is
    the larger of h(empty) and the largest singleton value; the ordering takes,
    at each step, the smallest element that keeps within the width.
    """
    full = (1 << n) - 1
    h = [0] * (full + 1)
    for p in range(full - 1, -1, -1):
        h[p] = max(values[p], min(h[p | 1 << e] for e in range(n) if not p >> e & 1))
    width = max(h[0], max(values[1 << e] for e in range(n)))
    order, p = [], 0
    for _ in range(n):
        e = next(e for e in range(n) if not p >> e & 1 and h[p | 1 << e] <= width)
        order.append(e)
        p |= 1 << e
    return width, tuple(order)


def oracle_symmetric_submodular_tables(n, max_value):
    """Every table of values 0..max_value over n elements with f(empty) = 0, f(A) = f(X - A)
    and f(S+i) + f(S+j) >= f(S) + f(S+i+j) for all S and i != j outside S.

    Backtracking gives one value to each complement pair, smaller side first
    (the side without element n-1 on a tie), and checks each local condition
    as soon as its four values are set.
    """
    full = (1 << n) - 1
    sides = sorted({min(m, full ^ m, key=lambda s: (bits(s), s)) for m in range(1, full)}, key=lambda s: (bits(s), s))
    position = {0: -1, full: -1}
    for t, side in enumerate(sides):
        position[side] = position[full ^ side] = t
    checks = [[] for _ in sides]
    for s in range(full + 1):
        for i, j in combinations([e for e in range(n) if not s >> e & 1], 2):
            quad = (s | 1 << i, s | 1 << j, s, s | 1 << i | 1 << j)
            last = max(position[m] for m in quad)
            if last >= 0:
                checks[last].append(quad)
    values = [0] * (full + 1)
    tables = []

    def assign(t):
        if t == len(sides):
            tables.append(tuple(values))
            return
        for v in range(max_value + 1):
            values[sides[t]] = values[full ^ sides[t]] = v
            if all(values[a] + values[b] >= values[c] + values[d] for a, b, c, d in checks[t]):
                assign(t + 1)

    assign(0)
    return tables


def oracle_generate_from_subbase(values, n, subbase, k):
    """Fixpoint closure: all finite intersections, then efficient up-closure.

    Returns ("empty", (u, v)), ("escape", (a, b, missing)), or ("ok", members);
    (u, v) is the least pair u < v of intersections, both non-empty, that meet
    in the empty set.
    """
    member_list = sorted(subbase)
    cores = set()
    for size in range(1, len(member_list) + 1):
        for combo in combinations(member_list, size):
            inter = combo[0]
            for m in combo[1:]:
                inter &= m
            cores.add(inter)
    if 0 in cores:
        return ("empty", _least_pair(cores, lambda u, v: u and u & v == 0))
    efficient_cores = {c for c in cores if values[c] <= k}
    result = set()
    for b in range(1 << n):
        if values[b] <= k and any(c | b == b for c in efficient_cores):
            result.add(b)
    ordered = sorted(result)
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            u = a & b
            if values[u] <= k and u not in result:
                return ("escape", (a, b, u))
    return ("ok", result)


def oracle_greedy_ultrafilter(values, n, k, base):
    """The ultrafilter that construction (base None) or extension (base a filter) picks.

    The README's rules, with sets as plain Python sets. The closure of a family
    adds efficient intersections and efficient supersets until nothing new
    appears, and fails if it reaches the empty set. Construction first visits
    the non-empty k-efficient sets in ascending bitmask order and keeps the
    closure with each one whose complement is not yet a member, if that closure
    does not fail. Then both visit the k-efficient sets in ascending order and
    decide each pair with neither side a member: of the sides whose closure
    does not fail, the one with more elements wins, the lower bitmask on ties.
    """
    full = (1 << n) - 1
    eff = [m for m in range(1 << n) if values[m] <= k]

    def closure(family, extra):
        members = set(family)
        new = {extra}
        while new:
            if 0 in new:
                return None
            members |= new
            found = set()
            for a in new:
                for b in members:
                    if values[a & b] <= k:
                        found.add(a & b)
                for c in eff:
                    if a | c == c:
                        found.add(c)
            new = found - members
        return members

    members = set()
    if base is None:
        for a in eff:
            if a != 0 and a not in members and full ^ a not in members:
                grown = closure(members, a)
                if grown is not None:
                    members = grown
    else:
        members = set(base)
    for a in eff:
        if a in members or full ^ a in members:
            continue
        sides = sorted((a, full ^ a), key=lambda s: (-bits(s), s))
        grown = [g for g in (closure(members, s) for s in sides) if g is not None]
        assert grown, "neither side of an undecided pair closes"
        members = grown[0]
    return members


def oracle_closure(values, n, k, kind, ins, outs):
    """Least fixpoint of the propagation rules of one kind, or None on a conflict.

    Starts from the sets in ``ins`` put in and those in ``outs`` put out, and
    applies the rules until nothing new follows. Sets with f > k are never
    members. Every kind but tangle fails when the empty set is put in;
    ultrafilter and tangle put the complement of each member out; filter,
    ultrafilter and single_ultrafilter put in efficient supersets; filter and
    ultrafilter put in efficient intersections of members; single_ultrafilter
    puts in a member minus an efficient singleton, when that is efficient;
    tangle puts out every efficient superset of what two members leave
    uncovered; putting a set out puts its complement in. A conflict is a set
    that is both in and out, or the empty set in. Returns (in set, out set).
    """
    full = (1 << n) - 1
    eff = [m for m in range(1 << n) if values[m] <= k]
    singletons = [1 << i for i in range(n) if values[1 << i] <= k]
    members, out = set(), set()
    to_add, to_remove = list(ins), list(outs)
    while to_add or to_remove:
        if to_remove:
            x = to_remove.pop()
            if values[x] > k or x in out:
                continue
            if x in members:
                return None
            out.add(x)
            to_add.append(full ^ x)
            continue
        s = to_add.pop()
        if s in members:
            continue
        if s in out or (s == 0 and kind != "tangle"):
            return None
        members.add(s)
        if kind in ("ultrafilter", "tangle"):
            to_remove.append(full ^ s)
        if kind != "tangle":
            for c in eff:
                if c & s == s:
                    to_add.append(c)
        if kind in ("filter", "ultrafilter"):
            for t in members:
                if values[s & t] <= k:
                    to_add.append(s & t)
        if kind == "single_ultrafilter":
            for e in singletons:
                if values[s & ~e] <= k:
                    to_add.append(s & ~e)
        if kind == "tangle":
            for t in members:
                uncovered = full ^ (s | t)
                for c in eff:
                    if c & uncovered == uncovered:
                        to_remove.append(c)
    return members, out


def oracle_k_efficient(values, k):
    """Every mask with value at most k, ascending."""
    return [mask for mask in range(len(values)) if values[mask] <= k]


def oracle_sequence_chain(values, n, k):
    """The chain from the empty set to X that a FIFO breadth-first search finds, or None.

    Each set taken from the queue is expanded, in ascending order, by its
    absent elements; a set keeps the first set that reached it as its parent.
    """
    full = (1 << n) - 1
    if values[0] > k:
        return None
    parent = {0: None}
    queue = [0]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        if cur == full:
            path = []
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            return tuple(reversed(path))
        for nxt in [cur | 1 << i for i in range(n) if not cur >> i & 1]:
            if nxt not in parent and values[nxt] <= k:
                parent[nxt] = cur
                queue.append(nxt)
    return None


def oracle_all_chains(sets):
    """Every non-empty chain of the given ascending masks, as tuples, DFS in ascending order."""

    def extend(chosen):
        yield tuple(chosen)
        top = chosen[-1]
        for m in sets:
            if m != top and top & ~m == 0:
                chosen.append(m)
                yield from extend(chosen)
                chosen.pop()

    for start in sets:
        yield from extend([start])


def oracle_t36(values, k, ultrafilters):
    """T3.6 by brute force: the first chain of k-efficient sets and ultrafilter of order k+1
    (given as member sets, in order) where the chain does not have exactly one member in
    the ultrafilter, as (chain, ultrafilter), or None."""
    for chain in oracle_all_chains(oracle_k_efficient(values, k)):
        for uf in ultrafilters:
            if sum(m in uf for m in chain) != 1:
                return chain, uf
    return None


def oracle_t38(values, k, ultrafilters):
    """T3.8 by brute force: the first set with f = k that is a member of one of the given
    ultrafilters (of order k), as (set, ultrafilter), or None."""
    for top in [m for m in range(len(values)) if values[m] == k]:
        for uf in ultrafilters:
            if top in uf:
                return top, uf
    return None


def oracle_t35(values, k, ultrafilters):
    """T3.5 by brute force: the first maximal antichain of non-empty k-efficient sets, in
    depth-first order over ascending masks, and the first ultrafilter of order k+1 (given as
    member sets, in order) that it misses, as (antichain, ultrafilter), or None."""
    family = [m for m in range(1, len(values)) if values[m] <= k]

    def incomparable(a, b):
        return a & ~b and b & ~a

    def antichains(start, chosen):
        yield tuple(chosen)
        for i in range(start, len(family)):
            if all(incomparable(family[i], c) for c in chosen):
                chosen.append(family[i])
                yield from antichains(i + 1, chosen)
                chosen.pop()

    for antichain in antichains(0, []):
        if not antichain:
            continue
        if any(m not in antichain and all(incomparable(m, c) for c in antichain) for m in family):
            continue  # not maximal
        for uf in ultrafilters:
            if not any(a in uf for a in antichain):
                return antichain, uf
    return None


def oracle_ultrafilter_number(values, n, k, ultrafilters):
    """The ultrafilter number by the unique-minimal-member route, as (u, generator) or
    (None, None): the first non-principal ultrafilter of order k+1 (given as member sets, in
    order) with exactly one minimal member, whose k-efficient supersets are exactly the
    ultrafilter, is generated by that member alone."""
    for uf in ultrafilters:
        if any(bits(m) == 1 for m in uf):
            continue
        minimal = [m for m in uf if not any(o != m and o & ~m == 0 for o in uf)]
        if len(minimal) != 1:
            continue
        up = {c for c in range(1 << n) if values[c] <= k and minimal[0] & ~c == 0}
        if up == set(uf):
            return 1, minimal[0]
    return None, None
