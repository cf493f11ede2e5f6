"""Builders and enumerators for ultrafilters, tangles, and generated filters."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import ConnectivitySystem, enumerate_k_efficient, gate_limit
from .errors import (
    EfficiencyEscape,
    EmptyIntersection,
    GroundSetTooLargeForEnumeration,
    InternalError,
    InvalidParameter,
    NotAFilter,
)
from .families import SetFamily, check_family
from .families import _bitset, _closure, _down, _first_pair, _joins, _masks, _meets, _pack, _reverse, _strict_down, _up

ENUMERATION_MAX_N = 8
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


def _record(search, members, results: list[SetFamily], non_principal_only: bool, limit: int | None) -> bool:
    """Re-verify a completed family and keep it; False once limit families are found."""
    if non_principal_only and any(m.bit_count() == 1 for m in members):
        return True
    fam = SetFamily(frozenset(members), search.k, search.sys.n)
    verdict = check_family(search.sys, fam, search.kind)
    if not verdict.holds:
        raise InternalError(
            f"enumeration produced a family failing {verdict.violated_axiom}; "
            "propagation is out of sync with the axiom checks"
        )
    results.append(fam)
    return limit is None or len(results) < limit


class _PairSearch:
    """In/out decisions on the k-efficient sets, closed under the rules of one filter kind.

    Filter, ultrafilter and single_ultrafilter share one state per search: a
    list over all 2^n masks, in which sets that are not k-efficient are never
    members, that propagation changes in place and a trail restores. The
    rules are:

    - putting the empty set in fails;
    - ultrafilter puts the complement of each member out;
    - every kind puts in efficient supersets;
    - filter and ultrafilter put in efficient intersections of members;
    - single_ultrafilter puts in a member minus an efficient singleton, when
      that is efficient;
    - putting a set out puts its complement in.

    Propagation reaches the least fixpoint of these rules in batches. A set
    s that goes in brings in, as one batch, every efficient superset of s
    that is not in yet, and fails if one of them is out, so the members are
    up-closed within the efficient sets after every batch. s meets every
    earlier member t and queues an efficient s & t that is not in. The t
    with s & t not efficient are s's partners, and the other sets c of the
    batch meet only those. This misses no set:

    - for every other t, c & t contains the efficient s & t, which goes in
      with its supersets, so an efficient c & t goes in with them;
    - meets inside a batch contain s, so they are in the batch;
    - a later member meets c when it goes in.

    Ultrafilter puts the complement of each batch member out, and fails if
    one of them is in. A single_ultrafilter set s with an efficient s - e
    goes in alone, because s - e goes in too and the batch made below it
    holds the supersets of s. Any other s goes in with its batch, and each
    other c queues c - e only for the efficient singletons e in s: for e
    outside s, c - e contains s, so it is in the batch.

    These kinds keep sparse lists because their work follows the efficient
    sets: a batch is read from a memoised superset list, where a bitset
    rule would pass over all 2^n masks however few are efficient. Tangles
    are decided on bitsets by ``_TangleSearch``.

    ``run`` enumerates families: decisions are explored in ascending-bitmask
    order with the "in" branch first, so completed families come out in
    lexicographic decision-vector order (complement pairs ordered by
    representative bitmask). Construction and extension grow a filter with
    ``add``. ``ops`` counts propagation work: one per set put in, one per
    entry of a superset list read, and one per pair of sets met. The meets
    that the partner rule skips are not examined, so they are not counted.
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

    def _set_out(self, mask: int) -> bool:
        """Put mask out unless it is in; the caller puts its complement in."""
        state = self.state
        if state[mask] == _IN:
            return False
        if state[mask] == _UNKNOWN:
            state[mask] = _OUT
            self.trail.append(mask)
        return True

    def _propagate(self, queue: list[int]) -> bool:
        state, ins, trail, kind, full = self.state, self.ins, self.trail, self.kind, self.full
        while queue:
            s = queue.pop()
            if state[s] == _IN:
                continue
            if state[s] == _OUT or s == 0:
                return False
            if kind == "single_ultrafilter":
                # an efficient s - e goes in too, and its supersets include those of s
                rests = [s ^ e for e in self.eff_singletons if s & e and state[s ^ e] != _NEVER]
                if rests:
                    state[s] = _IN
                    trail.append(s)
                    ins.append(s)
                    self.ops += 1
                    queue.extend([rest for rest in rests if state[rest] < _IN])
                    continue
            sups = self._supersets(s)
            batch = [c for c in sups if state[c] != _IN]  # batch[0] is s, the least of its supersets
            self.ops += len(sups) + len(batch)
            if _OUT in map(state.__getitem__, batch):
                return False
            for c in batch:
                state[c] = _IN
            trail += batch
            if kind == "single_ultrafilter":
                if len(batch) > 1:
                    # c - e lies above s for every e outside s, so it is in the batch
                    drops = [e for e in self.eff_singletons if s & e]
                    queue += [c ^ e for c in batch[1:] for e in drops if state[c ^ e] < _IN]
                ins += batch
                continue
            if kind == "ultrafilter":
                comps = [full ^ c for c in batch]
                if _IN in map(state.__getitem__, comps):
                    return False
                comps = [d for d in comps if state[d] == _UNKNOWN]
                for d in comps:
                    state[d] = _OUT
                trail += comps
            # c & t contains s & t for every c in the batch: an efficient s & t goes in with its
            # supersets, so the batch meets only the members t for which s & t is not efficient
            meets = [s & t for t in ins]
            partners = [t for t, m in zip(ins, meets) if state[m] == _NEVER]
            queue += [m for m in meets if state[m] < _IN]
            self.ops += len(ins) + len(partners) * (len(batch) - 1)
            if partners:
                queue += [m for c in batch[1:] for t in partners if state[m := c & t] < _IN]
            ins += batch
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
        if self._propagate([self.full]):  # the empty set can never be a member
            self._dfs(0, results, non_principal_only, limit)
        return results

    def _dfs(self, pos, results, non_principal_only, limit) -> bool:
        """Complete the state from keff[pos] on; False once limit families are found."""
        keff, state, end = self.keff, self.state, len(self.keff)
        while pos < end and state[keff[pos]] != _UNKNOWN:
            pos += 1
        if pos == end:
            return _record(self, self.ins, results, non_principal_only, limit)
        mask = keff[pos]
        for branch in (_IN, _OUT):
            mark = self._mark()
            queue = [mask] if branch == _IN else [self.full ^ mask]
            if branch == _OUT:
                self._set_out(mask)  # mask is undecided, so this cannot fail
            stop = self._propagate(queue) and not self._dfs(pos + 1, results, non_principal_only, limit)
            self._undo(mark)
            if stop:
                return False
        return True


class _TangleSearch:
    """Tangle decisions on two bitsets over all 2^n masks, in which bit c stands for mask c.

    The 2^n-bit helpers (``_joins``, ``_reverse``, ``_down``,
    ``_strict_down``, ``_masks``) are those that ``check_family`` decides on.

    ``ins`` holds the members and ``outs`` the sets put out. A member's
    complement goes out, and an out set's complement goes in, so at every
    fixpoint ``outs`` is the bit reversal of ``ins`` (bit c to bit full ^ c),
    and a conflict is a set in both. The cover rule puts out every efficient
    superset of what two members s and t leave uncovered; the complements
    of those sets are the efficient subsets of s | t, so each round puts in
    the efficient part of the subset closure of the pair unions. For a member
    s, the unions {s | t : t in ins} are ``_joins(ins, s)``: |s|
    folds of ``ins``, the fold for element i moving every mask that lacks i
    up by 2^i. Each round pairs the members that are new with every member,
    s itself included, and rounds repeat until no member is new. A new
    member inside another member is not paired: its unions lie inside that
    member's, whose subsets are put in by that member's own pairs.

    The DFS branches on the lowest undecided efficient mask, "in" first,
    exactly as ``_PairSearch`` does, and the least fixpoint is unique, so
    the families and their order are the same. A branch keeps its parent's
    two integers, so nothing is undone. ``ops`` counts one per member put in
    and one per 2^n-bit pass: one per fold, and three per round for the
    subset closures (n shift-ORs each).
    """

    kind = "tangle"

    def __init__(self, sys: ConnectivitySystem, k: int):
        self.sys = sys
        self.k = k
        self.eff = _pack(sys.array <= k)
        self.ops = 0

    def _close(self, ins: int, new: int) -> tuple[int, int] | None:
        """(ins, outs) at the least fixpoint over the members ins, of which new are unpaired; None on a conflict."""
        n = self.sys.n
        while True:
            outs = _reverse(ins, n)
            if ins & outs:
                return None
            if not new:
                return ins, outs
            self.ops += new.bit_count()
            # a member inside another member only makes unions inside that member's
            inside = _strict_down(ins, n)
            unions = 0
            for s in _masks(new & ~inside, n):
                unions |= _joins(ins, s, n)
                self.ops += s.bit_count()
            self.ops += 3
            new = (_down(unions, n) & self.eff | ins) ^ ins
            ins |= new

    def run(self, non_principal_only: bool, limit: int | None) -> list[SetFamily]:
        results: list[SetFamily] = []
        # X and the co-singletons are out, so the empty set and the efficient singletons are in
        seeds = (1 | sum(1 << (1 << i) for i in range(self.sys.n))) & self.eff
        closed = self._close(seeds, seeds)
        if closed:
            self._dfs(*closed, results, non_principal_only, limit)
        return results

    def _dfs(self, ins, outs, results, non_principal_only, limit) -> bool:
        """Complete the decisions from the state (ins, outs); False once limit families are found."""
        undecided = self.eff & ~(ins | outs)
        if not undecided:
            return _record(self, _masks(ins, self.sys.n), results, non_principal_only, limit)
        mask = (undecided & -undecided).bit_length() - 1
        for side in (mask, self.sys.full_mask ^ mask):
            closed = self._close(ins | 1 << side, 1 << side)
            if closed and not self._dfs(*closed, results, non_principal_only, limit):
                return False
        return True


def enumerate_families(sys: ConnectivitySystem, req: EnumerationRequest) -> list[SetFamily]:
    """All families of the requested kind and order, in canonical search order."""
    limit = gate_limit(ENUMERATION_MAX_N)
    if sys.n > limit:
        raise GroundSetTooLargeForEnumeration(f"exhaustive family enumeration is gated to n <= {limit}")
    if req.k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    search = _TangleSearch(sys, req.k) if req.kind == "tangle" else _PairSearch(sys, req.k, req.kind)
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
        first, second = (mask, comp) if mask.bit_count() >= comp.bit_count() else (comp, mask)
        if not (search.add(first) or search.add(second)):
            raise InternalError("neither side of an undecided pair extends consistently")


def _verified_ultrafilter(sys: ConnectivitySystem, search: _PairSearch, what: str) -> SetFamily:
    result = SetFamily(frozenset(search.ins), search.k, sys.n)
    final = check_family(sys, result, "ultrafilter")
    if not final.holds:
        raise InternalError(f"{what} produced a family failing {final.violated_axiom}")
    return result


def extend_filter_to_ultrafilter(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    """Extend a filter to an ultrafilter of the same order.

    The filter's members are put in in ascending bitmask order, so each
    minimal member's batch brings its supersets in and the later adds do
    nothing. Undecided k-efficient sets are visited in ascending bitmask
    order; when both sides of a pair can be added consistently, the side
    with more elements wins (lower bitmask on ties).
    """
    verdict = check_family(sys, fam, "filter")
    if not verdict.holds:
        raise NotAFilter(verdict)
    search = _PairSearch(sys, fam.k, "filter")
    if not all(search.add(m) for m in fam.sorted_members()):
        raise InternalError("a verified filter does not close consistently")
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
    the propagation work: one per set put in, one per efficient superset
    read when a set brings its supersets in, and one per pair of sets met,
    which pairs each such set with every earlier member and the rest of its
    batch with its partners only (see ``_PairSearch``). It is asserted
    against the budget 64 * 4^n.
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
        raise InternalError(f"operation count {search.ops} exceeded the budget {budget}")
    return _verified_ultrafilter(sys, search, "construction"), search.ops


def generate_from_subbase(sys: ConnectivitySystem, subbase: SetFamily) -> SetFamily:
    """The filter generated by a subbase: finite intersections, then up-closure."""
    verdict = check_family(sys, subbase, "filter_subbase")
    if not verdict.holds:
        raise InvalidParameter(f"subbase fails {verdict.violated_axiom}")
    meets = _closure(reversed(subbase.sorted_members()), sys.n, _meets)
    if meets & 1:
        raise EmptyIntersection(_first_pair(meets ^ 1, 1, sys.n, _meets, operator.and_)[:2])
    generated = _up_closure(sys, meets, subbase.k)
    verdict = check_family(sys, generated, "pi_system")  # non-empty: it holds the subbase
    if not verdict.holds:
        raise EfficiencyEscape(*verdict.witnesses)
    return generated


def ultrafilter_number(sys: ConnectivitySystem, k: int) -> UltrafilterNumberResult:
    """Minimum size of a prefilter whose generated up-closure is a non-principal ultrafilter.

    A downward-directed generating family must contain every minimal member
    of the generated ultrafilter, and directedness collapses two distinct
    minimal members into one; so only an ultrafilter with a unique minimal
    member m is generable, by {m}. It holds every k-efficient set or its
    complement, so no efficient set separates two elements of m, and m is an
    efficient class of that equivalence. Conversely the up-closure of an
    efficient class C is an ultrafilter, non-principal iff |C| >= 2. The
    witness is the C whose up-closure enumeration reaches first: the largest
    membership vector over the efficient sets in ascending order.
    """
    if k < 0:
        raise InvalidParameter("the efficiency bound must be non-negative")
    keff = np.flatnonzero(sys.array <= k)  # holds X, since f(X) = f(empty) = 0
    classes = []
    left = sum(1 << i for i in range(sys.n) if sys.f(1 << i) > k)  # an efficient singleton is a class
    while left:
        low = left & -left
        # the efficient sets that hold low meet in its class: their complements separate the rest
        cls = int(np.bitwise_and.reduce(keff[(keff & low) != 0]))
        left &= ~cls
        if cls.bit_count() >= 2 and sys.f(cls) <= k:
            classes.append(cls)
    if not classes:
        return UltrafilterNumberResult(None, None)
    best = max(classes, key=lambda c: ((keff & c) == c).tobytes())
    if np.any(((keff & best) != 0) & ((keff & best) != best)):
        raise InternalError(f"the class {best:#x} is split by a k-efficient set")
    return UltrafilterNumberResult(1, SetFamily(frozenset([best]), k, sys.n))


def _up_closure(sys: ConnectivitySystem, bits: int, k: int) -> SetFamily:
    """The k-efficient supersets of the k-efficient sets in bits."""
    eff = _pack(sys.array <= k)
    return SetFamily(frozenset(_masks(_up(bits & eff, sys.n) & eff, sys.n)), k, sys.n)


def generated_filter_of_prefilter(sys: ConnectivitySystem, fam: SetFamily) -> SetFamily:
    """Up-closure of a prefilter within the k-efficient sets."""
    verdict = check_family(sys, fam, "prefilter")
    if not verdict.holds:
        raise InvalidParameter(f"family fails prefilter axiom {verdict.violated_axiom}")
    return _up_closure(sys, _bitset(fam.members, sys.n), fam.k)
