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

# Ordered so that state < _IN means "efficient and not yet a member".
_UNKNOWN, _OUT, _IN, _NEVER = 0, 1, 2, 3


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
    """In/out decisions on the k-efficient sets, closed under the rules of one kind.

    Every kind shares one state per search: a list over all 2^n masks, in
    which sets that are not k-efficient are never members, that propagation
    changes in place and a trail restores. The rules are:

    - every kind but tangle fails when the empty set is put in;
    - ultrafilter and tangle put the complement of each member out;
    - filter, ultrafilter and single_ultrafilter put in efficient supersets;
    - filter and ultrafilter put in efficient intersections of members;
    - single_ultrafilter puts in a member minus an efficient singleton, when
      that is efficient;
    - tangle puts out every efficient superset of what two members leave
      uncovered;
    - putting a set out puts its complement in.

    Propagation reaches the least fixpoint of these rules, and skips every
    firing that can only re-derive a set that is already decided or queued:

    - a set queued by a member's superset scan gets that member as its root,
      for the length of one propagation, and later scans do not queue it
      again. When it goes in, it skips its own
      superset scan, which the root's scan contains, and it meets only the
      members that do not contain the root: the other intersections are
      efficient supersets of the root, so they are queued already;
    - a single_ultrafilter member s with an efficient s - e skips its
      superset scan, because s - e goes in too and the scan made below it
      covers the supersets of s;
    - a tangle member s scans once per distinct union s | t, and skips a
      union u other than s whose complement is already out: u is then in or
      queued, and its own pair (u, u) makes the same scan.

    ``run`` enumerates families: decisions are explored in ascending-bitmask
    order with the "in" branch first, so completed families come out in
    lexicographic decision-vector order (complement pairs ordered by
    representative bitmask). Construction and extension grow a filter with
    ``add``. ``ops`` counts propagation work: one per set put in and one per
    efficient superset or member intersection examined. Skipped scans and
    pairs are not examined, so they are not counted.
    """

    def __init__(self, sys: ConnectivitySystem, k: int, kind: str):
        self.sys = sys
        self.k = k
        self.kind = kind
        self.full = sys.full_mask
        self.keff = enumerate_k_efficient(sys, k)
        self.eff_singletons = [1 << i for i in range(sys.n) if sys.f(1 << i) <= k]
        self.state = [_NEVER] * (1 << sys.n)
        for m in self.keff:
            self.state[m] = _UNKNOWN
        self.ins: list[int] = []  # members in the order they were put in
        self.trail: list[int] = []  # every decided set in decision order
        self.ops = 0
        self._supersets_of: dict[int, list[int]] = {}

    def _supersets(self, mask: int) -> list[int]:
        """Efficient supersets of mask, filtered from those of mask less its lowest element."""
        sups = self._supersets_of.get(mask)
        if sups is None:
            wider = self._supersets(mask & (mask - 1)) if mask else self.keff
            sups = self._supersets_of[mask] = [c for c in wider if c & mask == mask]
        return sups

    def _mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.ins)

    def _undo(self, mark: tuple[int, int]) -> None:
        for m in self.trail[mark[0] :]:
            self.state[m] = _UNKNOWN
        del self.trail[mark[0] :]
        del self.ins[mark[1] :]

    def _set_out(self, mask: int, queue: list[int]) -> bool:
        state = self.state
        if state[mask] == _IN:
            return False
        if state[mask] != _UNKNOWN:
            return True  # already out, or never a member
        state[mask] = _OUT
        self.trail.append(mask)
        queue.append(self.full ^ mask)  # the pair must still be decided
        return True

    def _propagate(self, queue: list[int]) -> bool:
        state, ins, kind, full = self.state, self.ins, self.kind, self.full
        root: dict[int, int] = {}  # set queued by a member's superset scan -> that member
        partners: dict[int, tuple[list[int], int]] = {}  # root -> (members without it, len(ins) seen)
        while queue:
            s = queue.pop()
            if state[s] == _IN:
                continue
            if state[s] == _OUT or (s == 0 and kind != "tangle"):
                return False
            state[s] = _IN
            self.trail.append(s)
            ins.append(s)
            self.ops += 1
            if kind in ("ultrafilter", "tangle") and not self._set_out(full ^ s, queue):
                return False
            if kind == "tangle":
                unions = set()
                for t in ins:
                    u = s | t
                    # once full ^ u is out, u is in or queued and its own pair does this scan
                    if u in unions or (u != s and state[full ^ u] == _OUT):
                        continue
                    unions.add(u)
                    for c in self._supersets(full ^ u):
                        if state[c] != _OUT and not self._set_out(c, queue):
                            return False
                continue
            r = root.get(s)
            rests = ()
            if kind == "single_ultrafilter":
                # an efficient s - e goes in too, and its supersets include those of s
                rests = [s ^ e for e in self.eff_singletons if s & e and state[s ^ e] != _NEVER]
            if r is None and not rests:
                sups = self._supersets(s)
                self.ops += len(sups)
                for c in sups:
                    if state[c] != _IN and c not in root:
                        queue.append(c)
                        root[c] = s
            if kind == "single_ultrafilter":
                queue.extend([rest for rest in rests if state[rest] < _IN])
                continue
            if r is None:
                pool = ins
            else:
                # members that contain r meet s in a superset of r, which r's scan queued
                pool, seen = partners.get(r, ([], 0))
                pool.extend([t for t in ins[seen:] if t & r != r])
                partners[r] = pool, len(ins)
            self.ops += len(pool)
            for t in pool:
                if state[s & t] < _IN:
                    queue.append(s & t)
        return True

    def add(self, mask: int) -> bool:
        """Put mask in and propagate; on a conflict restore the state and return False."""
        mark = self._mark()
        if self._propagate([mask]):
            return True
        self._undo(mark)
        return False

    def run(self, non_principal_only: bool, limit: int | None) -> list[SetFamily]:
        results: list[SetFamily] = []
        queue: list[int] = []
        if self.kind == "tangle":
            outs = [self.full] + [self.full ^ (1 << i) for i in range(self.sys.n)]
            ok = all(self._set_out(m, queue) for m in outs)
        else:
            queue.append(self.full)  # the empty set can never be a member
            ok = True
        if ok and self._propagate(queue):
            self._dfs(0, results, non_principal_only, limit)
        return results

    def _dfs(self, pos, results, non_principal_only, limit) -> bool:
        """Complete the state from keff[pos] on; False once limit families are found."""
        keff, state = self.keff, self.state
        while pos < len(keff) and state[keff[pos]] != _UNKNOWN:
            pos += 1
        if pos == len(keff):
            members = frozenset(self.ins)
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
        mask = keff[pos]
        for branch in (_IN, _OUT):
            mark = self._mark()
            queue = [mask] if branch == _IN else []
            if branch == _OUT:
                self._set_out(mask, queue)  # mask is undecided, so this cannot fail
            stop = self._propagate(queue) and not self._dfs(pos + 1, results, non_principal_only, limit)
            self._undo(mark)
            if stop:
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


def _decide_pairs(search: _PairSearch) -> None:
    """Put in one side of every undecided complement pair, in ascending bitmask order.

    The side with more elements is tried first (the lower bitmask on ties),
    and the other side only if that fails.
    """
    state, full = search.state, search.full
    for mask in search.keff:
        search.ops += 1
        comp = full ^ mask
        if state[mask] == _IN or state[comp] == _IN:
            continue
        first, second = (mask, comp) if popcount(mask) >= popcount(comp) else (comp, mask)
        if not (search.add(first) or search.add(second)):
            raise RuntimeError("neither side of an undecided pair extends consistently")


def _verified_ultrafilter(sys: ConnectivitySystem, search: _PairSearch, what: str) -> SetFamily:
    result = SetFamily(frozenset(search.ins), search.k, sys.n)
    final = check_family(sys, result, "ultrafilter")
    if not final.holds:
        raise RuntimeError(f"{what} produced a family failing {final.violated_axiom}")
    return result


def extend_filter_to_ultrafilter(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    """Extend a filter to an ultrafilter of the same order.

    Undecided k-efficient sets are visited in ascending bitmask order; when
    both sides of a pair can be added consistently, the side with more
    elements wins (lower bitmask on ties).
    """
    verdict = check_family(sys, fam, "filter")
    if not verdict.holds:
        raise NotAFilter(verdict)
    search = _PairSearch(sys, fam.k, "filter")
    if not all(search.add(m) for m in fam.members):
        raise RuntimeError("a verified filter does not close consistently")
    _decide_pairs(search)
    return _verified_ultrafilter(sys, search, "extension")


def construct_ultrafilter(sys: ConnectivitySystem, k: int) -> SetFamily:
    """Build an ultrafilter of order k+1 from scratch."""
    fam, _ = construct_ultrafilter_with_stats(sys, k)
    return fam


def construct_ultrafilter_with_stats(sys: ConnectivitySystem, k: int) -> tuple[SetFamily, int]:
    """Construct an ultrafilter and report the number of basic operations.

    Three phases: enumerate the k-efficient candidates, grow a filter by
    greedy consistent inclusion in ascending bitmask order, then decide the
    remaining complement pairs as extension does. The operation count is 2^n
    for the candidate scan, one per candidate in each of the two passes, and
    the propagation work: one per set put in and one per efficient superset
    or member intersection examined. It is asserted against the budget
    64 * 4^n.
    """
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    search = _PairSearch(sys, k, "filter")
    search.ops += 1 << sys.n  # candidate scan
    state, full = search.state, sys.full_mask
    for mask in search.keff:
        search.ops += 1
        if mask and state[mask] != _IN and state[full ^ mask] != _IN:
            search.add(mask)  # a set that conflicts is dropped; its pair is decided below
    _decide_pairs(search)
    budget = OPERATION_BUDGET_FACTOR * (4**sys.n)
    if search.ops > budget:
        raise RuntimeError(f"operation count {search.ops} exceeded the budget {budget}")
    return _verified_ultrafilter(sys, search, "construction"), search.ops


def generate_from_subbase(sys: ConnectivitySystem, subbase: SetFamily) -> SetFamily:
    """The filter generated by a subbase: finite intersections, then up-closure."""
    verdict = check_family(sys, subbase, "filter_subbase")
    if not verdict.holds:
        raise InvalidParameter(f"subbase fails {verdict.violated_axiom}")
    values = _intersection_values(subbase.sorted_members())
    if 0 in values:
        raise EmptyIntersection(values[0])
    k, f = subbase.k, sys.values
    cores = frozenset(v for v in values if f[v] <= k)
    generated = _up_closure(sys, SetFamily(cores, k, sys.n))
    ordered = generated.sorted_members()
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            u = a & b
            if f[u] <= k and u not in generated.members:
                raise EfficiencyEscape(a, b, u)
    return generated


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
