"""Chains, antichains, Dilworth covers, sequence chains, and the theorem-audit engine.

Audits decide a statement in closed form where the axioms alone settle it
(T3.5 from the minimal efficient sets and the ultrafilters; T3.6, T3.8,
T3.9) and otherwise quantify its hypothesis exhaustively at desk scale.
The audits of one k share one ultrafilter enumeration and one sequence
chain. Each reports either verified_at_scale or a concrete counterexample;
counterexample witnesses always re-verify against the statement being
audited.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .construction import ENUMERATION_MAX_N, EnumerationRequest, enumerate_families
from .core import ConnectivitySystem, enumerate_k_efficient, gate_limit, popcount
from .decomposition import _sequence_chain, branch_width
from .errors import (
    ChainOrderBroken,
    EfficiencyViolation,
    ElementAbsent,
    ElementAlreadyPresent,
    GroundSetMismatch,
    GroundSetTooLargeForEnumeration,
    InternalError,
    InvalidParameter,
    NotKEfficient,
)
from .families import SetFamily, check_family, complement_family

BRUTE_COVER_MAX_FAMILY = 12

THEOREM_IDS = (
    "T3.5-antichain-meets-ultrafilter",
    "T3.6-exactly-one",
    "T3.8-maximal-set-exclusion",
    "T3.9-no-chain-no-ultrafilter",
    "TSC-no-antichain",
    "TSC-no-nonprincipal-ultrafilter",
    "TSC-decomposition",
    "T2.32-equivalence-list",
    "co-tangle-filter",
)


@dataclass(frozen=True)
class Chain:
    """Strictly nested k-efficient subsets."""

    sets: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class Antichain:
    """Pairwise incomparable k-efficient subsets."""

    sets: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class AuditReport:
    theorem_id: str
    instance: str
    status: str  # verified_at_scale | counterexample_found
    witness: tuple = ()
    detail: str = ""


def _check_masks(sys: ConnectivitySystem, masks) -> None:
    for mask in masks:
        if not 0 <= mask <= sys.full_mask:
            raise GroundSetMismatch(f"subset mask {mask:#x} outside an {sys.n}-element ground set")


def _check_element(sys: ConnectivitySystem, element: int) -> None:
    if not 0 <= element < sys.n:
        raise GroundSetMismatch(f"element {element} outside an {sys.n}-element ground set")


def make_chain(sys: ConnectivitySystem, sets, k: int) -> Chain:
    sets = tuple(sets)
    _check_masks(sys, sets)
    for prev, cur in zip(sets, sets[1:]):
        if prev == cur:
            raise ChainOrderBroken(f"duplicate member {cur:#x}")
        if prev & ~cur:
            raise ChainOrderBroken(f"{prev:#x} is not contained in {cur:#x}")
    for mask in sets:
        if sys.f(mask) > k:
            raise EfficiencyViolation(mask, sys.f(mask), k)
    return Chain(sets, k)


def make_antichain(sys: ConnectivitySystem, sets, k: int) -> Antichain:
    sets = tuple(sorted(sets))
    _check_masks(sys, sets)
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if a & ~b == 0 or b & ~a == 0:
                raise ChainOrderBroken(f"{a:#x} and {b:#x} are comparable")
    for mask in sets:
        if sys.f(mask) > k:
            raise EfficiencyViolation(mask, sys.f(mask), k)
    return Antichain(sets, k)


def _nonempty_efficient(sys: ConnectivitySystem, k: int) -> list[int]:
    return [m for m in enumerate_k_efficient(sys, k) if m != 0]


def _max_matching(family: list[int]) -> tuple[dict[int, int], dict[int, int], list[list[int]]]:
    """Deterministic Kuhn matching on the strict-inclusion bipartite graph.

    Returns the successor links succ_of, where succ_of[i] = j means family[i]
    is immediately followed by family[j] in a chain of the cover, their
    inverse pred_of, and the graph. Augmenting paths run hundreds of sets
    deep, so each search keeps its own stack.
    """
    n = len(family)
    succ_of = {}  # left index -> right index
    pred_of = {}  # right index -> left index
    adj = [[j for j in range(n) if i != j and family[i] & ~family[j] == 0] for i in range(n)]
    for root in range(n):
        seen = set()
        stack = [(None, root, iter(adj[root]))]  # (the right vertex that led here, left vertex, its untried edges)
        while stack:
            for j in stack[-1][2]:
                if j not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(j)
            if j not in pred_of:
                for came, i, _ in reversed(stack):  # flip the path from its free end
                    pred_of[j], succ_of[i] = i, j
                    j = came
                break
            stack.append((j, pred_of[j], iter(adj[pred_of[j]])))
    return succ_of, pred_of, adj


def min_chain_cover(sys: ConnectivitySystem, family: list[int], k: int) -> list[Chain]:
    """Partition family into the minimum number of chains (min path cover)."""
    limit = gate_limit(ENUMERATION_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"chain cover is gated to n <= {limit}")
    family = sorted(set(family))
    _check_masks(sys, family)
    for mask in family:
        if sys.f(mask) > k:
            raise NotKEfficient(mask)
    succ_of, pred_of, _ = _max_matching(family)
    chains = []
    for i in range(len(family)):
        if i in pred_of:
            continue
        path = [family[i]]
        cur = i
        while cur in succ_of:
            cur = succ_of[cur]
            path.append(family[cur])
        chains.append(make_chain(sys, path, k))
    return chains


def find_max_antichain(sys: ConnectivitySystem, k: int) -> Antichain:
    """A maximum antichain within the non-empty k-efficient subsets."""
    limit = gate_limit(ENUMERATION_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"antichain search is gated to n <= {limit}")
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    family = _nonempty_efficient(sys, k)
    if not family:
        return Antichain((), k)
    n = len(family)
    succ_of, pred_of, adj = _max_matching(family)
    # Koenig: alternating reachability from unmatched left vertices
    left_z = set(i for i in range(n) if i not in succ_of)
    right_z: set[int] = set()
    frontier = list(left_z)
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in right_z:
                right_z.add(j)
                if j in pred_of and pred_of[j] not in left_z:
                    left_z.add(pred_of[j])
                    frontier.append(pred_of[j])
    members = [family[i] for i in range(n) if i in left_z and i not in right_z]
    expected = n - len(succ_of)
    if len(members) != expected:
        raise InternalError(f"antichain extraction yielded {len(members)}, expected {expected}")
    return make_antichain(sys, members, k)


def brute_force_min_cover_size(sys: ConnectivitySystem, family: list[int], k: int) -> int:
    """Minimum chain-cover size by direct search; the second, independent route."""
    family = sorted(set(family), key=lambda m: (popcount(m), m))
    _check_masks(sys, family)
    for mask in family:
        if sys.f(mask) > k:
            raise NotKEfficient(mask)
    n = len(family)
    if n == 0:
        return 0

    def feasible(c: int) -> bool:
        tops: list[int | None] = [None] * c

        def place(idx: int) -> bool:
            if idx == n:
                return True
            mask = family[idx]
            opened_new = False
            for t in range(c):
                top = tops[t]
                if top is None:
                    if opened_new:
                        continue  # empty chains are interchangeable
                    opened_new = True
                    tops[t] = mask
                    if place(idx + 1):
                        return True
                    tops[t] = None
                elif top & ~mask == 0:
                    tops[t] = mask
                    if place(idx + 1):
                        return True
                    tops[t] = top
            return False

        return place(0)

    for c in range(1, n + 1):
        if feasible(c):
            return c
    return n


def find_sequence_chain(sys: ConnectivitySystem, k: int) -> Chain | None:
    """A chain from the empty set to X, one element per step, with all values at most k, or None.

    The chain is the one a FIFO breadth-first search finds when it expands
    each set by its absent elements in ascending order and keeps the first
    parent of each set: the prefixes of the lexicographically first ordering
    whose prefixes all have f <= k.
    """
    sets = _sequence_chain(sys, k)
    return None if sets is None else make_chain(sys, sets, k)


def chain_extend_single(sys: ConnectivitySystem, chain: Chain, element: int) -> Chain:
    """Append the top set plus one new element."""
    _check_element(sys, element)
    top = chain.sets[-1] if chain.sets else 0
    bit = 1 << element
    if top & bit:
        raise ElementAlreadyPresent(f"element {element} already in the top set")
    new = top | bit
    if sys.f(new) > chain.k:
        raise EfficiencyViolation(new, sys.f(new), chain.k)
    return Chain(chain.sets + (new,), chain.k)


def chain_delete_single(sys: ConnectivitySystem, chain: Chain, index: int, element: int) -> Chain:
    """Remove one element from the set at index, re-validating the whole chain."""
    sets = list(chain.sets)
    if not 0 <= index < len(sets):
        raise ChainOrderBroken(f"no chain member at index {index}")
    _check_element(sys, element)
    bit = 1 << element
    if not sets[index] & bit:
        raise ElementAbsent(f"element {element} not in the set at index {index}")
    sets[index] ^= bit
    return make_chain(sys, sets, chain.k)


class _Level:
    """One audited k: its ultrafilters and sequence chain, each computed on first use."""

    def __init__(self, sys: ConnectivitySystem, k: int):
        self.sys = sys
        self.k = k
        self.instance = f"{sys.spec_kind} n={sys.n} k={k}"

    @functools.cached_property
    def ultrafilters(self) -> list[SetFamily]:
        return enumerate_families(self.sys, EnumerationRequest("ultrafilter", self.k))

    @functools.cached_property
    def non_principal(self) -> list[SetFamily]:
        return [uf for uf in self.ultrafilters if not any(popcount(m) == 1 for m in uf.members)]

    @functools.cached_property
    def sequence_chain(self) -> Chain | None:
        return find_sequence_chain(self.sys, self.k)


def _family_witness(fam: SetFamily) -> tuple:
    return tuple(sorted(fam.members))


def _audit_t35(level: _Level) -> tuple:
    """T3.5: every maximal antichain of non-empty k-efficient sets meets every ultrafilter of order k+1.

    The minimal non-empty efficient sets M form a maximal antichain. An
    ultrafilter U is up-closed among the efficient sets (Q2), so when U holds
    some m in M, every maximal antichain meets U: one of its members is
    comparable with m, so it is m or an efficient superset of m. The
    statement therefore fails exactly when some U holds no member of M, and
    the witness is (M, U) for the first such U enumerated.
    """
    minimal: list[int] = []
    for m in _nonempty_efficient(level.sys, level.k):  # ascending, so every subset of m comes first
        if not any(b & ~m == 0 for b in minimal):
            minimal.append(m)
    ufs = level.ultrafilters
    for uf in ufs:
        if uf.members.isdisjoint(minimal):
            witness = (make_antichain(level.sys, minimal, level.k).sets, _family_witness(uf))
            return "counterexample_found", witness, "maximal antichain disjoint from an ultrafilter"
    return "verified_at_scale", (), f"{len(ufs)} ultrafilters x {len(minimal)} minimal efficient sets"


def _audit_t36(level: _Level) -> tuple:
    """T3.6 as formalised: each chain of k-efficient sets meets each ultrafilter of order k+1 exactly once.

    The chain (empty set,) meets no ultrafilter, since none holds the empty
    set (Q3), so the statement fails exactly when such an ultrafilter exists;
    the first one enumerated is the witness.
    """
    ufs = level.ultrafilters
    if ufs:
        witness = ((0,), _family_witness(ufs[0]))
        return "counterexample_found", witness, "chain has 0 members in the ultrafilter, not exactly one"
    return "verified_at_scale", (), ""


def _audit_t38(level: _Level) -> tuple:
    """T3.8 as formalised: no set with f = k is a member of an ultrafilter of order k.

    Every member of such an ultrafilter has f <= k-1 (Q0), so the statement
    holds at every k >= 1 without enumeration; at k = 0 there is no
    ultrafilter of order 0 to test.
    """
    detail = "vacuous: no ultrafilter of order 0 is representable" if level.k == 0 else ""
    return "verified_at_scale", (), detail


def _audit_t39(level: _Level) -> tuple:
    """T3.9 as formalised: if no chain of order k+1 exists, no ultrafilter of order k+1 does.

    The empty set alone is a chain of order k+1 at every k >= 0, so the
    hypothesis never holds.
    """
    return "verified_at_scale", (), "vacuous: a chain of order k+1 always exists (the empty set alone)"


def _given_a_sequence_chain(audit):
    """An audit of a statement about a sequence chain: verified when none exists, else audit(level, chain)."""

    @functools.wraps(audit)
    def run(level: _Level) -> tuple:
        seq = level.sequence_chain
        if seq is None:
            return "verified_at_scale", (), "no sequence chain exists"
        return audit(level, seq.sets)

    return run


@_given_a_sequence_chain
def _audit_tsc_no_antichain(level: _Level, seq: tuple) -> tuple:
    antichain = find_max_antichain(level.sys, level.k)
    if len(antichain.sets) >= 2:
        return "counterexample_found", (seq, antichain.sets), "a sequence chain and an antichain coexist"
    return "verified_at_scale", (seq,), ""


@_given_a_sequence_chain
def _audit_tsc_no_nonprincipal(level: _Level, seq: tuple) -> tuple:
    found = level.non_principal
    if found:
        witness = (seq, _family_witness(found[0]))
        return "counterexample_found", witness, "a sequence chain and a non-principal ultrafilter coexist"
    return "verified_at_scale", (seq,), ""


@_given_a_sequence_chain
def _audit_tsc_decomposition(level: _Level, seq: tuple) -> tuple:
    width = branch_width(level.sys).width
    if width <= level.k:
        return "verified_at_scale", (seq,), f"width {width}"
    return "counterexample_found", (seq,), f"sequence chain exists but branch-width is {width} > {level.k}"


_EQUIVALENCE_SUBCHECKS = (
    "co-tangle",
    "superfilter",
    "closure_system",
    "sigma_filter",
    "pi_system",
    "weak_ultrafilter",
    "co-independence_system",
)


def _audit_t232(level: _Level) -> tuple:
    """T2.32: every non-principal ultrafilter U of order k+1 satisfies each kind of _EQUIVALENCE_SUBCHECKS.

    Five of the seven follow from the ultrafilter axioms Q0-Q4 (U is
    non-empty), f(empty) = f(X) = 0 and symmetry, so only co-tangle and
    sigma_filter are checked, in that order:
    - closure_system: CL1 is Q1, and X is an efficient superset of any
      member, so X is a member by Q2 (CL2).
    - pi_system: PI1 is non-emptiness and PI2 is Q1.
    - weak_ultrafilter: two members with an empty intersection would put
      the efficient empty set into U by Q1, against Q3 (QW1'); Q0, Q2 and
      Q3 are the filter's own.
    - superfilter: SUF1 and SUF2 are Q0 and Q2. For SUF3, let a and b be
      efficient non-members with a | b a member. By Q4 and symmetry X - a
      and X - b are members, and their intersection X - (a | b) is
      efficient like a | b, so it is a member by Q1. It meets a | b in the
      efficient empty set, which Q1 then puts into U, against Q3.
    - co-independence_system: X is a member, so the complements hold the
      empty set (IN1). An efficient subset S of X - a, for a member a, has
      the efficient complement X - S above a, a member by Q2 (IN2).
    """
    ufs = level.non_principal
    if not ufs:
        return "verified_at_scale", (), "vacuous: no non-principal ultrafilter exists"
    for uf in ufs:
        for name, fam, kind in (("co-tangle", complement_family(uf), "tangle"), ("sigma_filter", uf, "sigma_filter")):
            axiom = check_family(level.sys, fam, kind).violated_axiom
            if axiom is not None:
                witness = (_family_witness(uf), name, axiom)
                return "counterexample_found", witness, f"non-principal ultrafilter fails {name} via {axiom}"
    return "verified_at_scale", (), f"{len(ufs)} non-principal ultrafilters x {len(_EQUIVALENCE_SUBCHECKS)} kinds"


def _audit_co_tangle_filter(level: _Level) -> tuple:
    sys, k = level.sys, level.k
    keff = enumerate_k_efficient(sys, k)
    if len(keff) > 16:
        raise GroundSetTooLargeForEnumeration(
            "filter brute force is gated to at most 16 efficient sets"
        )
    for bits in range(1, 1 << len(keff)):
        members = frozenset(keff[i] for i in range(len(keff)) if bits >> i & 1)
        fam = SetFamily(members, k, sys.n)
        if not check_family(sys, fam, "filter").holds:
            continue
        axiom = check_family(sys, complement_family(fam), "tangle").violated_axiom
        if axiom is not None:
            return "counterexample_found", (_family_witness(fam), axiom), f"a filter whose complement fails {axiom}"
    return "verified_at_scale", (), ""


_AUDITS = {
    "T3.5-antichain-meets-ultrafilter": _audit_t35,
    "T3.6-exactly-one": _audit_t36,
    "T3.8-maximal-set-exclusion": _audit_t38,
    "T3.9-no-chain-no-ultrafilter": _audit_t39,
    "TSC-no-antichain": _audit_tsc_no_antichain,
    "TSC-no-nonprincipal-ultrafilter": _audit_tsc_no_nonprincipal,
    "TSC-decomposition": _audit_tsc_decomposition,
    "T2.32-equivalence-list": _audit_t232,
    "co-tangle-filter": _audit_co_tangle_filter,
}

CHAIN_THEOREMS = THEOREM_IDS[:7]
FAMILY_THEOREMS = THEOREM_IDS[7:]


def run_theorem_audit(sys: ConnectivitySystem, k: int, theorems=None) -> list[AuditReport]:
    """Audit the selected statements on one instance; reports in fixed id order.

    The audits of one call share one ultrafilter enumeration and one
    sequence chain, each computed only if a selected audit reads it.
    """
    selected = THEOREM_IDS if theorems is None else tuple(theorems)
    for tid in selected:
        if tid not in _AUDITS:
            raise InvalidParameter(f"unknown theorem id {tid!r}")
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    level = _Level(sys, k)
    return [AuditReport(tid, level.instance, *_AUDITS[tid](level)) for tid in THEOREM_IDS if tid in selected]
