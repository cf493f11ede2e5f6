"""Builders and enumerators for ultrafilters, tangles, and generated filters."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConnectivitySystem, enumerate_k_efficient, gate_limit, popcount
from .errors import (
    EfficiencyEscape,
    EmptyIntersection,
    GroundSetTooLargeForEnumeration,
    InvalidParameter,
    NotAFilter,
)
from .families import SetFamily, _intersection_values, check_family

ENUMERATION_MAX_N = 8
ULTRAFILTER_NUMBER_MAX_N = 6
OPERATION_BUDGET_FACTOR = 64

_UNKNOWN, _IN, _OUT = 0, 1, 2


@dataclass(frozen=True)
class EnumerationRequest:
    kind: str  # ultrafilter | tangle | single_ultrafilter
    k: int
    non_principal_only: bool = False
    limit: int | None = None

    def __post_init__(self):
        if self.kind not in ("ultrafilter", "tangle", "single_ultrafilter"):
            raise InvalidParameter(f"cannot enumerate families of kind {self.kind!r}")
        if self.limit is not None and self.limit < 1:
            raise InvalidParameter("limit must be at least 1 when present")


@dataclass(frozen=True)
class UltrafilterNumberResult:
    u: int | None
    witness_prefilter: SetFamily | None


class _PairSearch:
    """Backtracking over in/out decisions for k-efficient sets with closure propagation.

    Decisions are explored in ascending-bitmask order with the "in" branch
    first, so completed families come out in lexicographic decision-vector
    order (complement pairs ordered by representative bitmask).
    """

    def __init__(self, sys: ConnectivitySystem, k: int, kind: str):
        self.sys = sys
        self.k = k
        self.kind = kind
        self.full = sys.full_mask
        self.keff = enumerate_k_efficient(sys, k)
        self.is_eff = [sys.values[m] <= k for m in range(1 << sys.n)]
        self.supersets = {m: [c for c in self.keff if c & m == m] for m in self.keff}
        self.eff_singletons = [1 << i for i in range(sys.n) if self.is_eff[1 << i]]

    def _set_out(self, state: list[int], mask: int, queue: list[int]) -> bool:
        if not self.is_eff[mask]:
            return True  # cannot be a member anyway
        if state[mask] == _IN:
            return False
        if state[mask] == _OUT:
            return True
        state[mask] = _OUT
        queue.append(self.full ^ mask)  # the pair must still be decided
        return True

    def _propagate(self, state: list[int], ins: list[int], queue: list[int]) -> bool:
        while queue:
            s = queue.pop()
            if state[s] == _IN:
                continue
            if state[s] == _OUT:
                return False
            if s == 0 and self.kind != "tangle":
                return False
            state[s] = _IN
            ins.append(s)
            if self.kind in ("ultrafilter", "tangle"):
                if not self._set_out(state, self.full ^ s, queue):
                    return False
            if self.kind in ("ultrafilter", "single_ultrafilter"):
                for c in self.supersets[s]:
                    if state[c] != _IN:
                        queue.append(c)
            if self.kind == "ultrafilter":
                for t in ins:
                    u = s & t
                    if self.is_eff[u] and state[u] != _IN:
                        queue.append(u)
            elif self.kind == "single_ultrafilter":
                for e in self.eff_singletons:
                    rest = s & ~e
                    if self.is_eff[rest] and state[rest] != _IN:
                        queue.append(rest)
            elif self.kind == "tangle":
                for t in ins:
                    rem = self.full ^ (s | t)
                    sups = self.supersets.get(rem)
                    if sups is None:
                        sups = self._eff_supersets(rem)
                    for c in sups:
                        if not self._set_out(state, c, queue):
                            return False
        return True

    def _eff_supersets(self, mask: int) -> list[int]:
        return [c for c in self.keff if c & mask == mask]

    def _initial(self):
        state = [_UNKNOWN] * (1 << self.sys.n)
        ins: list[int] = []
        queue: list[int] = []
        if self.kind == "tangle":
            if not self._set_out(state, self.full, queue):
                return None
            for i in range(self.sys.n):
                if not self._set_out(state, self.full ^ (1 << i), queue):
                    return None
        else:
            queue.append(self.full)  # the empty set can never be a member
        if not self._propagate(state, ins, queue):
            return None
        return state, ins

    def run(self, non_principal_only: bool, limit: int | None) -> list[SetFamily]:
        results: list[SetFamily] = []
        start = self._initial()
        if start is None:
            return results
        self._dfs(start[0], start[1], results, non_principal_only, limit)
        return results

    def _dfs(self, state, ins, results, non_principal_only, limit) -> bool:
        if limit is not None and len(results) >= limit:
            return False
        branch_mask = next((m for m in self.keff if state[m] == _UNKNOWN), None)
        if branch_mask is None:
            members = frozenset(ins)
            if non_principal_only and any(popcount(m) == 1 for m in members):
                return True
            fam = SetFamily(members, self.k, self.sys.n)
            verdict = check_family(self.sys, fam, self.kind)
            if not verdict.holds:
                raise RuntimeError(
                    f"enumeration produced a family failing {verdict.violated_axiom}; "
                    "propagation is out of sync with the axiom checks"
                )
            results.append(fam)
            return limit is None or len(results) < limit
        for branch in (_IN, _OUT):
            st = state.copy()
            new_ins = list(ins)
            queue = []
            if branch == _IN:
                queue.append(branch_mask)
                ok = self._propagate(st, new_ins, queue)
            else:
                ok = self._set_out(st, branch_mask, queue) and self._propagate(st, new_ins, queue)
            if ok:
                if not self._dfs(st, new_ins, results, non_principal_only, limit):
                    return False
        return True


def enumerate_families(sys: ConnectivitySystem, req: EnumerationRequest) -> list[SetFamily]:
    """All families of the requested kind and order, in canonical search order."""
    limit = gate_limit(ENUMERATION_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"exhaustive family enumeration is gated to n <= {limit}")
    if req.k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    search = _PairSearch(sys, req.k, req.kind)
    return search.run(req.non_principal_only, req.limit)


class _Closure:
    """Eagerly closed family under efficient intersections and supersets."""

    def __init__(self, sys: ConnectivitySystem, k: int, counter=None):
        self.sys = sys
        self.k = k
        self.full = sys.full_mask
        self.keff = enumerate_k_efficient(sys, k)
        self.is_eff = [sys.values[m] <= k for m in range(1 << sys.n)]
        self.supersets = {m: [c for c in self.keff if c & m == m] for m in self.keff}
        self.counter = counter

    def _tick(self, units: int = 1):
        if self.counter is not None:
            self.counter.ops += units

    def close(self, base: set[int], new: int) -> set[int] | None:
        """Members after adding new, or None if the empty set becomes derivable."""
        members = set(base)
        work = [new]
        while work:
            s = work.pop()
            self._tick()
            if s in members:
                continue
            if s == 0:
                return None
            members.add(s)
            for t in list(members):
                u = s & t
                self._tick()
                if self.is_eff[u] and u not in members:
                    work.append(u)
            for c in self.supersets[s]:
                self._tick()
                if c not in members:
                    work.append(c)
        return members


class _OpCounter:
    def __init__(self):
        self.ops = 0


def extend_filter_to_ultrafilter(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    """Extend a filter to an ultrafilter of the same order.

    Undecided k-efficient sets are visited in ascending bitmask order; when
    both sides of a pair can be added consistently, the side with more
    elements wins (lower bitmask on ties).
    """
    verdict = check_family(sys, fam, "filter")
    if not verdict.holds:
        raise NotAFilter(verdict)
    closure = _Closure(sys, fam.k)
    current = set(fam.members)
    full = sys.full_mask
    for mask in closure.keff:
        if mask in current or (full ^ mask) in current:
            continue
        comp = full ^ mask
        with_mask = closure.close(current, mask)
        with_comp = closure.close(current, comp)
        if with_mask is not None and with_comp is not None:
            if popcount(mask) > popcount(comp):
                current = with_mask
            elif popcount(comp) > popcount(mask):
                current = with_comp
            else:
                current = with_mask  # equal cardinality: lower bitmask wins
        elif with_mask is not None:
            current = with_mask
        elif with_comp is not None:
            current = with_comp
        else:
            raise RuntimeError("neither side of an undecided pair extends consistently")
    result = SetFamily(frozenset(current), fam.k, sys.n)
    final = check_family(sys, result, "ultrafilter")
    if not final.holds:
        raise RuntimeError(f"extension produced a family failing {final.violated_axiom}")
    return result


def construct_ultrafilter(sys: ConnectivitySystem, k: int) -> SetFamily:
    """Build an ultrafilter of order k+1 from scratch."""
    fam, _ = construct_ultrafilter_with_stats(sys, k)
    return fam


def construct_ultrafilter_with_stats(sys: ConnectivitySystem, k: int) -> tuple[SetFamily, int]:
    """Construct an ultrafilter and report the number of basic operations.

    Three phases: enumerate the k-efficient candidates, grow a filter by
    greedy consistent inclusion in ascending bitmask order, then decide any
    remaining complement pairs. The operation count is asserted against the
    budget 64 * 4^n.
    """
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    counter = _OpCounter()
    counter.ops += 1 << sys.n  # candidate scan
    closure = _Closure(sys, k, counter)
    candidates = closure.keff
    full = sys.full_mask
    current: set[int] = set()
    for mask in candidates:
        counter.ops += 1
        if mask == 0 or mask in current:
            continue
        if (full ^ mask) in current:
            continue  # immediate conflict; keep the established side
        attempt = closure.close(current, mask)
        if attempt is not None:
            current = attempt
    # decide pairs where both sides were discarded during the greedy pass
    for mask in candidates:
        counter.ops += 1
        if mask == 0 or mask in current or (full ^ mask) in current:
            continue
        comp = full ^ mask
        with_mask = closure.close(current, mask)
        with_comp = closure.close(current, comp)
        if with_mask is not None and with_comp is not None:
            current = with_mask if popcount(mask) >= popcount(comp) else with_comp
        elif with_mask is not None:
            current = with_mask
        elif with_comp is not None:
            current = with_comp
        else:
            raise RuntimeError("neither side of an undecided pair extends consistently")
    budget = OPERATION_BUDGET_FACTOR * (4**sys.n)
    if counter.ops > budget:
        raise RuntimeError(f"operation count {counter.ops} exceeded the budget {budget}")
    result = SetFamily(frozenset(current), k, sys.n)
    final = check_family(sys, result, "ultrafilter")
    if not final.holds:
        raise RuntimeError(f"construction produced a family failing {final.violated_axiom}")
    return result, counter.ops


def generate_from_subbase(sys: ConnectivitySystem, subbase: SetFamily) -> SetFamily:
    """The filter generated by a subbase: finite intersections, then up-closure."""
    verdict = check_family(sys, subbase, "filter_subbase")
    if not verdict.holds:
        raise InvalidParameter(f"subbase fails {verdict.violated_axiom}")
    values = _intersection_values(subbase.sorted_members())
    if 0 in values:
        raise EmptyIntersection(values[0])
    k = subbase.k
    cores = [v for v in values if sys.values[v] <= k]
    keff = enumerate_k_efficient(sys, k)
    members = {c for c in keff if any(v & ~c == 0 for v in cores)}
    ordered = sorted(members)
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            u = a & b
            if sys.values[u] <= k and u not in members:
                raise EfficiencyEscape(a, b, u)
    return SetFamily(frozenset(members), k, sys.n)


def _minimal_members(fam: SetFamily) -> list[int]:
    ordered = fam.sorted_members()
    return [m for m in ordered if not any(o != m and o & ~m == 0 for o in ordered)]


def ultrafilter_number(sys: ConnectivitySystem, k: int) -> UltrafilterNumberResult:
    """Minimum size of a prefilter whose generated up-closure is a non-principal ultrafilter.

    A downward-directed generating family must contain every minimal member
    of the generated ultrafilter, and directedness collapses two distinct
    minimal members into one; so only ultrafilters with a unique minimal
    member are generable, and then the singleton family of that member is a
    smallest witness.
    """
    limit = gate_limit(ULTRAFILTER_NUMBER_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"ultrafilter number search is gated to n <= {limit}")
    req = EnumerationRequest("ultrafilter", k, non_principal_only=True)
    for uf in enumerate_families(sys, req):
        mins = _minimal_members(uf)
        if len(mins) == 1:
            witness = SetFamily(frozenset(mins), k, sys.n)
            generated = _up_closure(sys, witness)
            if generated.members == uf.members:
                return UltrafilterNumberResult(1, witness)
    return UltrafilterNumberResult(None, None)


def _up_closure(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    keff = enumerate_k_efficient(sys, fam.k)
    members = {c for c in keff if any(b & ~c == 0 for b in fam.members)}
    return SetFamily(frozenset(members), fam.k, sys.n)


def generated_filter_of_prefilter(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    """Up-closure of a prefilter within the k-efficient sets."""
    verdict = check_family(sys, fam, "prefilter")
    if not verdict.holds:
        raise InvalidParameter(f"family fails prefilter axiom {verdict.violated_axiom}")
    return _up_closure(sys, fam)
