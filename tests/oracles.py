"""Independent re-implementations used as test oracles.

Everything here is written directly from the axiom and definition texts with
plain nested loops, on purpose sharing no helper code with the library. The
few oracles that must reach n = 18 read the definitions over whole numpy
arrays instead, still in plain mask order.
"""

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

    raise ValueError(kind)


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

    def submasks(mask):
        sub = 0
        while True:
            yield sub
            if sub == mask:
                return
            sub = (sub - mask) & mask

    for A in range(1 << n):
        if values[A] <= k and A not in F and (full ^ A) not in F:
            return "MA1", (A, full ^ A)
    for i, A in enumerate(ordered):
        for B in ordered[i:]:
            if A & B == 0 and B != full ^ A:
                return "MA2", (A, B)
    for A in ordered:
        for f_set in submasks(A):
            for g_set in submasks(full ^ A):
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
    """The first (A, B) in row-major order with f(A) + f(B) < f(A & B) + f(A | B), or None."""
    for a in range(1 << n):
        for b in range(1 << n):
            if values[a] + values[b] < values[a & b] + values[a | b]:
                return (a, b)
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


def oracle_generate_from_subbase(values, n, subbase, k):
    """Fixpoint closure: all finite intersections, then efficient up-closure.

    Returns ("empty", witnesses), ("escape", (a, b, missing)), or ("ok", members).
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
        for size in range(1, len(member_list) + 1):
            for combo in combinations(member_list, size):
                inter = combo[0]
                for m in combo[1:]:
                    inter &= m
                if inter == 0:
                    return ("empty", combo)
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
