"""Chains, antichains, Dilworth covers, sequence chains, and the theorem-audit engine.

Audits decide a statement in closed form where the axioms alone settle it
(T3.6, T3.8, T3.9) and otherwise quantify its hypothesis exhaustively at
desk scale. Each reports either verified_at_scale or a concrete
counterexample; counterexample witnesses always re-verify against the
statement being audited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import EnumerationRequest, enumerate_families
from .core import ConnectivitySystem, enumerate_k_efficient, gate_limit, popcount
from .decomposition import branch_width
from .errors import (
    ChainOrderBroken,
    EfficiencyViolation,
    ElementAbsent,
    ElementAlreadyPresent,
    GroundSetTooLargeForEnumeration,
    InternalError,
    InvalidParameter,
    NotKEfficient,
)
from .families import SetFamily, check_family, complement_family

ANTICHAIN_MAX_N = 5
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


def make_chain(sys: ConnectivitySystem, sets, k: int) -> Chain:
    sets = tuple(sets)
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


def _max_matching(family: list[int]) -> dict[int, int]:
    """Deterministic Kuhn matching on the strict-inclusion bipartite graph.

    Returns successor links: match[i] = j means family[i] is immediately
    followed by family[j] in a chain of the cover.
    """
    n = len(family)
    succ_of = {}  # left index -> right index
    pred_of = {}  # right index -> left index
    adj = [[j for j in range(n) if i != j and family[i] & ~family[j] == 0] for i in range(n)]

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in pred_of or augment(pred_of[j], seen):
                pred_of[j] = i
                succ_of[i] = j
                return True
        return False

    for i in range(n):
        augment(i, set())
    return succ_of


def min_chain_cover(sys: ConnectivitySystem, family: list[int], k: int) -> list[Chain]:
    """Partition family into the minimum number of chains (min path cover)."""
    if len(family) > 64:
        raise GroundSetTooLargeForEnumeration("chain cover is gated to families of at most 64 sets")
    family = sorted(set(family))
    for mask in family:
        if sys.f(mask) > k:
            raise NotKEfficient(mask)
    succ_of = _max_matching(family)
    has_pred = set(succ_of.values())
    chains = []
    for i in range(len(family)):
        if i in has_pred:
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
    limit = gate_limit(ANTICHAIN_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"antichain search is gated to n <= {limit}")
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    family = _nonempty_efficient(sys, k)
    if not family:
        return Antichain((), k)
    n = len(family)
    succ_of = _max_matching(family)
    pred_of = {j: i for i, j in succ_of.items()}
    # Koenig: alternating reachability from unmatched left vertices
    left_z = set(i for i in range(n) if i not in succ_of)
    right_z: set[int] = set()
    frontier = list(left_z)
    adj = [[j for j in range(n) if i != j and family[i] & ~family[j] == 0] for i in range(n)]
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

    The chain is the one a breadth-first search finds when it expands each
    set by its absent elements in ascending order.
    """
    full = sys.full_mask
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
    path, at = [full], 0  # the last layer is X alone
    for layer, parent in zip(reversed(layers[:-1]), reversed(parents)):
        at = parent[at]
        path.append(int(layer[at]))
    return make_chain(sys, reversed(path), k)


def chain_extend_single(sys: ConnectivitySystem, chain: Chain, element: int) -> Chain:
    """Append the top set plus one new element."""
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
    bit = 1 << element
    if not sets[index] & bit:
        raise ElementAbsent(f"element {element} not in the set at index {index}")
    sets[index] ^= bit
    return make_chain(sys, sets, chain.k)


def _all_antichains(family: list[int]):
    """Every antichain (as tuple of indices into family), DFS in ascending order."""
    n = len(family)

    def extend(start: int, chosen: list[int]):
        yield tuple(chosen)
        for i in range(start, n):
            if all(
                family[i] & ~family[j] and family[j] & ~family[i] for j in chosen
            ):
                chosen.append(i)
                yield from extend(i + 1, chosen)
                chosen.pop()

    yield from extend(0, [])


def _enumerate_ultrafilters(sys, k, non_principal_only=False, limit=None):
    return enumerate_families(
        sys, EnumerationRequest("ultrafilter", k, non_principal_only=non_principal_only, limit=limit)
    )


def _instance_summary(sys: ConnectivitySystem, k: int) -> str:
    return f"{sys.spec_kind} n={sys.n} k={k}"


def _family_witness(fam: SetFamily) -> tuple:
    return tuple(sorted(fam.members))


def _audit_t35(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
    limit = gate_limit(ANTICHAIN_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"antichain audit is gated to n <= {limit}")
    family = _nonempty_efficient(sys, k)
    ufs = _enumerate_ultrafilters(sys, k)
    members_set = set(family)
    maximal = []
    for idx_tuple in _all_antichains(family):
        if not idx_tuple:
            continue
        chosen = [family[i] for i in idx_tuple]
        extendable = any(
            m not in chosen
            and all(m & ~c and c & ~m for c in chosen)
            for m in members_set
        )
        if not extendable:
            maximal.append(tuple(chosen))
    for antichain in maximal:
        for uf in ufs:
            if not any(a in uf.members for a in antichain):
                return AuditReport(
                    "T3.5-antichain-meets-ultrafilter",
                    inst,
                    "counterexample_found",
                    (antichain, _family_witness(uf)),
                    "maximal antichain disjoint from an ultrafilter",
                )
    return AuditReport(
        "T3.5-antichain-meets-ultrafilter",
        inst,
        "verified_at_scale",
        (),
        f"{len(maximal)} maximal antichains x {len(ufs)} ultrafilters",
    )


def _audit_t36(sys, k) -> AuditReport:
    """T3.6 as formalised: each chain of k-efficient sets meets each ultrafilter of order k+1 exactly once.

    The chain (empty set,) meets no ultrafilter, since none holds the empty
    set (Q3), so the statement fails exactly when such an ultrafilter exists;
    the first one enumerated is the witness.
    """
    inst = _instance_summary(sys, k)
    ufs = _enumerate_ultrafilters(sys, k, limit=1)
    if ufs:
        return AuditReport(
            "T3.6-exactly-one",
            inst,
            "counterexample_found",
            ((0,), _family_witness(ufs[0])),
            "chain has 0 members in the ultrafilter, not exactly one",
        )
    return AuditReport("T3.6-exactly-one", inst, "verified_at_scale")


def _audit_t38(sys, k) -> AuditReport:
    """T3.8 as formalised: no set with f = k is a member of an ultrafilter of order k.

    Every member of such an ultrafilter has f <= k-1 (Q0), so the statement
    holds at every k >= 1 without enumeration; at k = 0 there is no
    ultrafilter of order 0 to test.
    """
    detail = "vacuous: no ultrafilter of order 0 is representable" if k == 0 else ""
    return AuditReport("T3.8-maximal-set-exclusion", _instance_summary(sys, k), "verified_at_scale", (), detail)


def _audit_t39(sys, k) -> AuditReport:
    """T3.9 as formalised: if no chain of order k+1 exists, no ultrafilter of order k+1 does.

    The empty set alone is a chain of order k+1 at every k >= 0, so the
    hypothesis never holds.
    """
    return AuditReport(
        "T3.9-no-chain-no-ultrafilter",
        _instance_summary(sys, k),
        "verified_at_scale",
        (),
        "vacuous: a chain of order k+1 always exists (the empty set alone)",
    )


def _audit_tsc_no_antichain(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
    seq = find_sequence_chain(sys, k)
    if seq is None:
        return AuditReport(
            "TSC-no-antichain", inst, "verified_at_scale", (), "no sequence chain exists"
        )
    antichain = find_max_antichain(sys, k)
    if len(antichain.sets) >= 2:
        return AuditReport(
            "TSC-no-antichain",
            inst,
            "counterexample_found",
            (seq.sets, antichain.sets),
            "a sequence chain and an antichain coexist",
        )
    return AuditReport("TSC-no-antichain", inst, "verified_at_scale", (seq.sets,))


def _audit_tsc_no_nonprincipal(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
    seq = find_sequence_chain(sys, k)
    if seq is None:
        return AuditReport(
            "TSC-no-nonprincipal-ultrafilter",
            inst,
            "verified_at_scale",
            (),
            "no sequence chain exists",
        )
    found = _enumerate_ultrafilters(sys, k, non_principal_only=True, limit=1)
    if found:
        return AuditReport(
            "TSC-no-nonprincipal-ultrafilter",
            inst,
            "counterexample_found",
            (seq.sets, _family_witness(found[0])),
            "a sequence chain and a non-principal ultrafilter coexist",
        )
    return AuditReport("TSC-no-nonprincipal-ultrafilter", inst, "verified_at_scale", (seq.sets,))


def _audit_tsc_decomposition(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
    seq = find_sequence_chain(sys, k)
    if seq is None:
        return AuditReport(
            "TSC-decomposition", inst, "verified_at_scale", (), "no sequence chain exists"
        )
    result = branch_width(sys)
    if result.width <= k:
        return AuditReport(
            "TSC-decomposition", inst, "verified_at_scale", (seq.sets,), f"width {result.width}"
        )
    return AuditReport(
        "TSC-decomposition",
        inst,
        "counterexample_found",
        (seq.sets,),
        f"sequence chain exists but branch-width is {result.width} > {k}",
    )


_EQUIVALENCE_SUBCHECKS = (
    "co-tangle",
    "superfilter",
    "closure_system",
    "sigma_filter",
    "pi_system",
    "weak_ultrafilter",
    "co-independence_system",
)


def _audit_t232(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
    ufs = _enumerate_ultrafilters(sys, k, non_principal_only=True)
    if not ufs:
        return AuditReport(
            "T2.32-equivalence-list",
            inst,
            "verified_at_scale",
            (),
            "vacuous: no non-principal ultrafilter exists",
        )
    for uf in ufs:
        comp = complement_family(uf)
        checks = (
            ("co-tangle", check_family(sys, comp, "tangle")),
            ("superfilter", check_family(sys, uf, "superfilter")),
            ("closure_system", check_family(sys, uf, "closure_system")),
            ("sigma_filter", check_family(sys, uf, "sigma_filter")),
            ("pi_system", check_family(sys, uf, "pi_system")),
            ("weak_ultrafilter", check_family(sys, uf, "weak_filter")),
            ("co-independence_system", check_family(sys, comp, "independence_system")),
        )
        for name, verdict in checks:
            if not verdict.holds:
                return AuditReport(
                    "T2.32-equivalence-list",
                    inst,
                    "counterexample_found",
                    (_family_witness(uf), name, verdict.violated_axiom),
                    f"non-principal ultrafilter fails {name} via {verdict.violated_axiom}",
                )
    return AuditReport(
        "T2.32-equivalence-list",
        inst,
        "verified_at_scale",
        (),
        f"{len(ufs)} non-principal ultrafilters x {len(_EQUIVALENCE_SUBCHECKS)} kinds",
    )


def _audit_co_tangle_filter(sys, k) -> AuditReport:
    inst = _instance_summary(sys, k)
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
        comp = complement_family(fam)
        verdict = check_family(sys, comp, "tangle")
        if not verdict.holds:
            return AuditReport(
                "co-tangle-filter",
                inst,
                "counterexample_found",
                (_family_witness(fam), verdict.violated_axiom),
                f"a filter whose complement fails {verdict.violated_axiom}",
            )
    return AuditReport("co-tangle-filter", inst, "verified_at_scale")


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
    """Audit the selected statements on one instance; reports in fixed id order."""
    selected = THEOREM_IDS if theorems is None else tuple(theorems)
    for tid in selected:
        if tid not in _AUDITS:
            raise InvalidParameter(f"unknown theorem id {tid!r}")
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    return [_AUDITS[tid](sys, k) for tid in THEOREM_IDS if tid in selected]
