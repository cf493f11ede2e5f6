"""Explicit set families and axiom checks for every supported family kind.

A family is checked against the fixed axiom list of its kind. Axioms that
quantify over members are evaluated over the members; axioms that quantify
over all subsets (Q4, T2, SB4, MA1, ...) are evaluated over all k-efficient
subsets of the system. Verdicts report the first violated axiom in the
kind's fixed order, with the lowest-bitmask witness.

Sets of masks are 2^n-bit integers, bit c for mask c, closed up, down and
by complement in n shift-and-mask passes, and folded by _joins and _meets
into t | s or t & s for every t; the one _Ctx of a check makes each such
set the first time an axiom reads it. QW1', QQ1', P3, P4, L2, L3, SUF3,
SIF3, UC1, IN2 and MA2 are decided on them at every size, with the literal
scans' witnesses, except that SIF3 and L3 name the least pair of closure
values that gives the lowest failing set. Q0, Q1, Q2, Q4 and T3 have two
paths: one bitset pass from ARRAY_MIN_MEMBERS members gives both the
verdict and the literal scan's witness, and below it the scan itself runs,
as it was measured faster on the audits' many small families. MA3 is
decided at every size by one size comparison between members and efficient
non-members, and fip_check by one intersection. The flags that a report
derives beside a verdict (FT1, QS1, QSD1) come from derived_flags.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations_with_replacement

import numpy as np

from .core import ConnectivitySystem, enumerate_k_efficient, popcount
from .errors import (
    BoundIncrease,
    FipCrossCheckWarning,
    GroundSetMismatch,
    InvalidParameter,
    NotAFilter,
)

# Q0, Q1, Q2, Q4 and T3 take verdict and witness from one bitset pass on families
# this large and scan literally below; MA2 has only the bitset pass. The co-tangle
# audit checks about 43k smaller families a `small` bench round, where on 2 CPUs
# bitsets for Q4 and T3 raised job_p50_ms by 6-11% and for Q2 as well raised
# solve_s by 14%. A blocked pair table decides Q1 faster than meet counts.
ARRAY_MIN_MEMBERS = 17


@dataclass(frozen=True)
class SetFamily:
    """A finite collection of subsets over an n-element ground set, with bound k."""

    members: frozenset[int]
    k: int
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise InvalidParameter("the efficiency bound must be non-negative")
        full = (1 << self.n) - 1
        for m in self.members:
            if m < 0 or m > full:
                raise GroundSetMismatch(f"member mask {m:#x} outside an {self.n}-element ground set")

    @classmethod
    def of(cls, members, k: int, n: int) -> "SetFamily":
        return cls(frozenset(members), k, n)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    violated_axiom: str | None = None
    witnesses: tuple[int, ...] = ()


@dataclass(frozen=True)
class FamilyFlags:
    principal: str  # yes / no / vacuous
    non_principal: str  # yes / no
    uniform: bool


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@cache
def _element_bitsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each element i, the 2^n-bit sets of the masks that hold i and of those that lack it."""
    size, every = max(1, (1 << n) // 8), (1 << (1 << n)) - 1
    has = []
    for i in range(n):
        run = bytes([(0xAA, 0xCC, 0xF0)[i]]) if i < 3 else bytes(1 << i - 3) + b"\xff" * (1 << i - 3)
        has.append(int.from_bytes(run * (size // len(run)), "little") & every)
    return tuple(has), tuple(every ^ h for h in has)


def _pack(marked: np.ndarray) -> int:
    """The bitset, bit c for mask c, of a boolean array over the 2^n masks."""
    return int.from_bytes(np.packbits(marked, bitorder="little").tobytes(), "little")


def _bitset(masks, n: int) -> int:
    marked = np.zeros(1 << n, dtype=bool)
    marked[list(masks)] = True
    return _pack(marked)


def _unpack(bits: int, n: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes(max(1, (1 << n) // 8), "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n].view(bool)


def _lowest(bits: int) -> int:
    """The lowest mask whose bit is set; -1 if there is none."""
    return (bits & -bits).bit_length() - 1


def _masks(bits: int, n: int) -> list[int]:
    """The masks whose bits are set, ascending."""
    if bits.bit_count() < 32:
        out = []
        while bits:
            out.append(_lowest(bits))
            bits &= bits - 1
        return out
    return np.flatnonzero(_unpack(bits, n)).tolist()


def _up(bits: int, n: int) -> int:
    """Every superset of every set in bits."""
    for i, lack in enumerate(_element_bitsets(n)[1]):
        bits |= (bits & lack) << (1 << i)
    return bits


def _down(bits: int, n: int) -> int:
    """Every subset of every set in bits."""
    for i, has in enumerate(_element_bitsets(n)[0]):
        bits |= (bits & has) >> (1 << i)
    return bits


def _strict_down(bits: int, n: int) -> int:
    """Every proper subset of every set in bits."""
    has = _element_bitsets(n)[0]
    return _down(reduce(operator.or_, [(bits & h) >> (1 << i) for i, h in enumerate(has)], 0), n)


def _reverse(bits: int, n: int) -> int:
    """Bit c moved to bit X ^ c: the complement of every set."""
    size = max(1, (1 << n) // 8)
    raw = bits.to_bytes(size, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(raw, "big") >> (8 * size - (1 << n))


def _joins(bits: int, s: int, n: int) -> int:
    """t | s for every t in bits: one shift-and-mask pass per element of s."""
    has, lack = _element_bitsets(n)
    for i in range(s.bit_length()):
        if s >> i & 1:
            bits = (bits & has[i]) | ((bits & lack[i]) << (1 << i))
    return bits


def _meets(bits: int, s: int, n: int) -> int:
    """t & s for every t in bits: one shift-and-mask pass per element outside s."""
    has, lack = _element_bitsets(n)
    for i in range(n):
        if not s >> i & 1:
            bits = (bits & lack[i]) | ((bits & has[i]) >> (1 << i))
    return bits


def _closure(members, n: int, fold) -> int:
    """Every value of fold over the non-empty sub-collections of the members, for an associative fold.

    A member that is already a value adds nothing, so members given in the
    order that the fold moves (meets from the top, unions from the bottom)
    are mostly skipped.
    """
    closed = 0
    for s in members:
        if not closed >> s & 1:
            closed |= fold(closed, s, n) | 1 << s
    return closed


def _first_pair(pool: int, target: int, n: int, fold, op) -> tuple[int, int, int] | None:
    """The least (s, t) of sets in pool with op(s, t) in target, as (s, t, op(s, t)), or None; t >= s.

    fold(bits, s, n) gives op(t, s) for every t in bits, and op is symmetric.
    """
    for s in _masks(pool, n):
        if fold(pool, s, n) & target:
            ts = np.flatnonzero(_unpack(pool, n))
            t = int(ts[_unpack(target, n)[op(s, ts)].argmax()])
            return s, t, op(s, t)
    return None


class _Ctx:
    """One family at one bound, with its 2^n-bit sets, bit c for mask c.

    ``eff`` holds the efficient sets, ``mem`` the members, ``bad`` the
    efficient non-members and ``every`` all masks, each made when an axiom
    first reads it: the audits build tens of thousands of contexts a round.
    """

    def __init__(self, sys: ConnectivitySystem, fam: SetFamily):
        self.sys = sys
        self.k = fam.k
        self.full = sys.full_mask
        self.members = fam.members
        self.sorted = fam.sorted_members()
        self.f = sys.array.data  # indexing the buffer gives Python ints, without numpy's per-item call
        self.n = sys.n

    @cached_property
    def eff(self) -> int:
        return _pack(self.sys.array <= self.k)

    @cached_property
    def mem(self) -> int:
        return _bitset(self.sorted, self.n)

    @cached_property
    def bad(self) -> int:
        return self.eff & ~self.mem

    @cached_property
    def every(self) -> int:
        return (1 << (1 << self.n)) - 1

    @cached_property
    def keff(self) -> list[int]:
        # lazy: many verdicts are reached before any axiom that scans it
        return enumerate_k_efficient(self.sys, self.k)

    def efficient(self, mask: int) -> bool:
        return self.f[mask] <= self.k

    def member_pair(self, op, target: int) -> tuple[int, int] | None:
        """The least pair a <= b of members with op(a, b) in target, or None; op is symmetric.

        Blocks of about 2^18 pairs, rows r.. against columns r.., put each pair
        a <= b in the block of a's row and mirror there any hit below the
        diagonal, so only the first block that hits is cut to its upper triangle.
        """
        table = _unpack(target, self.n)
        arr = np.array(self.sorted, dtype=np.int64)
        rows = max(1, (1 << 18) // max(1, len(arr)))
        for r in range(0, len(arr), rows):
            hits = table[op(arr[r : r + rows, None], arr[None, r:])]
            if hits.any():
                i, j = divmod(int(np.triu(hits).argmax()), hits.shape[1])
                return int(arr[r + i]), int(arr[r + j])
        return None


def _ax_nonempty(c: _Ctx):
    if not c.members:
        return ()
    return None


def _ax_q0(c: _Ctx):
    if len(c.sorted) >= ARRAY_MIN_MEMBERS:
        low = _lowest(c.mem & ~c.eff)
        return (low,) if low >= 0 else None
    for a in c.sorted:
        if not c.efficient(a):
            return (a,)
    return None


def _ax_q1(c: _Ctx):
    if len(c.sorted) >= ARRAY_MIN_MEMBERS:
        pair = c.member_pair(np.bitwise_and, c.bad)
        return pair and (*pair, pair[0] & pair[1])
    for i, a in enumerate(c.sorted):
        for b in c.sorted[i:]:
            u = a & b
            if c.efficient(u) and u not in c.members:
                return (a, b, u)
    return None


def _ax_q2(c: _Ctx):
    if len(c.sorted) >= ARRAY_MIN_MEMBERS:
        low = _lowest(c.mem & _down(c.bad, c.n))  # a member below an efficient non-member
        return (low, _lowest(c.bad & _up(1 << low, c.n))) if low >= 0 else None
    for a in c.sorted:
        for b in c.keff:
            if b & a == a and b not in c.members:
                return (a, b)
    return None


def _ax_q3(c: _Ctx):
    if 0 in c.members:
        return (0,)
    return None


def _ax_q4(c: _Ctx):
    if len(c.sorted) >= ARRAY_MIN_MEMBERS:
        low = _lowest(c.bad & ~_reverse(c.mem, c.n))  # neither it nor its complement is a member
        return (low, c.full ^ low) if low >= 0 else None
    for a in c.keff:
        if a not in c.members and (c.full ^ a) not in c.members:
            return (a, c.full ^ a)
    return None


def _ax_qw1(c: _Ctx):
    pair = _first_pair(c.mem, 1, c.n, _meets, operator.and_)  # two members meet in the empty set
    return pair and pair[:2]


def _ax_qq1(c: _Ctx):
    # quantified over all pairs of subsets, not only efficient ones
    return _first_pair(c.every ^ c.mem, c.mem, c.n, _joins, operator.or_)


def _single_deletion_witness(c: _Ctx, require_singleton_eff: bool):
    for a in c.sorted:
        for i in range(c.sys.n):
            e = 1 << i
            if require_singleton_eff and not c.efficient(e):
                continue
            rest = a & ~e
            if c.efficient(rest) and rest not in c.members:
                return (a, e)
    return None


def _ax_qs1(c: _Ctx):
    return _single_deletion_witness(c, require_singleton_eff=True)


def _ax_qsd1(c: _Ctx):
    return _single_deletion_witness(c, require_singleton_eff=False)


def _ax_t3(c: _Ctx):
    if len(c.sorted) >= ARRAY_MIN_MEMBERS:
        # a | b | d = X for a member d iff a | b holds a complement; the least such pair
        # and then the least d above X - (a | b) is the least triple, as d < b would give a lesser one
        pair = c.member_pair(np.bitwise_or, _up(_reverse(c.mem, c.n), c.n))
        return pair and (*pair, _lowest(c.mem & _up(1 << (c.full & ~(pair[0] | pair[1])), c.n)))
    for a, b, d in combinations_with_replacement(c.sorted, 3):
        if a | b | d == c.full:
            return (a, b, d)
    return None


def _ax_t4(c: _Ctx):
    for i in range(c.sys.n):
        co = c.full ^ (1 << i)
        if co in c.members:
            return (co,)
    return None


def _ax_p3(c: _Ctx):
    # two members whose meet holds no efficient member
    pair = _first_pair(c.mem, c.every ^ _up(c.mem & c.eff, c.n), c.n, _meets, operator.and_)
    return pair and pair[:2]


def _ax_p4(c: _Ctx):
    # an efficient set such that neither it nor its complement holds an efficient member
    above = _up(c.mem & c.eff, c.n)
    low = _lowest(c.eff & ~above & ~_reverse(above, c.n))
    return (low,) if low >= 0 else None


def _ax_has_full(c: _Ctx):
    if c.full not in c.members:
        return (c.full,)
    return None


def _ax_l2(c: _Ctx):
    low = _lowest(_reverse(c.bad, c.n) & c.mem)  # a member with an efficient non-member complement
    return (low, c.full ^ low) if low >= 0 else None


def _ax_l3(c: _Ctx):
    # the unions of disjoint sub-collections; a value t disjoint from s joins it as t + s
    unions = _closure(c.sorted, c.n, lambda bits, s, n: (bits & _down(1 << (c.full ^ s), n)) << s)
    w = _lowest(unions & c.bad)
    if w < 0:
        return None
    u = next(u for u in _masks(unions & _down(1 << w, c.n), c.n) if 0 < u < w ^ u and unions >> (w ^ u) & 1)
    return (u, w ^ u, w)


def _ax_sif3(c: _Ctx):
    meets = _closure(reversed(c.sorted), c.n, _meets)
    w = _lowest(meets & c.bad)  # with the least pair of other values that meets in it
    return None if w < 0 else _first_pair(meets & _up(1 << w, c.n) ^ 1 << w, 1 << w, c.n, _meets, operator.and_)


def _ax_suf3(c: _Ctx):
    return _first_pair(c.bad, c.mem, c.n, _joins, operator.or_)


def _ax_uc1(c: _Ctx):
    return _first_pair(c.mem, c.bad, c.n, _joins, operator.or_)


def _ax_in1(c: _Ctx):
    if 0 not in c.members:
        return (0,)
    return None


def _ax_uc2(c: _Ctx):
    return _ax_in1(c) or _ax_has_full(c)


def _ax_in2(c: _Ctx):
    top = _lowest(_up(c.bad, c.n) & c.mem)  # a member above an efficient non-member
    return (top, _lowest(_down(1 << top, c.n) & c.bad)) if top >= 0 else None


def _ax_ma2(c: _Ctx):
    # a & b = 0 with b != X - a iff a lies strictly inside X - b; the relation is
    # symmetric, so the least such member a has no partner below it
    low = _lowest(_strict_down(_reverse(c.mem, c.n), c.n) & c.mem)
    return (low, _lowest(c.mem & _strict_down(1 << (c.full ^ low), c.n))) if low >= 0 else None


def _ax_ma3(c: _Ctx):
    # (a - F) | G over F inside a and G outside it is every set b once (F = a - b,
    # G = b - a), and |F| <= |G| iff |b| >= |a|: so a fails iff some efficient
    # non-member is at least as large, and the least (F, G) is the literal witness
    bad = [b for b in c.keff if b not in c.members]
    top = max(map(popcount, bad), default=-1)
    for a in c.sorted:
        size = popcount(a)
        if size <= top:
            return (a, *min((a & ~b, b & ~a) for b in bad if popcount(b) >= size))
    return None


_AXIOMS = {
    "filter": [("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("Q1", _ax_q1), ("Q2", _ax_q2), ("Q3", _ax_q3)],
    "ultrafilter": [
        ("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("Q1", _ax_q1), ("Q2", _ax_q2), ("Q3", _ax_q3), ("Q4", _ax_q4)
    ],
    "weak_filter": [("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("QW1'", _ax_qw1), ("Q2", _ax_q2), ("Q3", _ax_q3)],
    "quasi_filter": [("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("QQ1'", _ax_qq1), ("Q2", _ax_q2), ("Q3", _ax_q3)],
    "single_filter": [("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("QS1", _ax_qs1), ("Q2", _ax_q2), ("Q3", _ax_q3)],
    "single_ultrafilter": [
        ("nonempty", _ax_nonempty), ("Q0", _ax_q0), ("QS1", _ax_qs1), ("Q2", _ax_q2), ("Q3", _ax_q3), ("Q4", _ax_q4)
    ],
    "tangle": [("nonempty", _ax_nonempty), ("T1", _ax_q0), ("T2", _ax_q4), ("T3", _ax_t3), ("T4", _ax_t4)],
    "prefilter": [("nonempty", _ax_nonempty), ("P1", _ax_q3), ("P2", _ax_q0), ("P3", _ax_p3)],
    "ultra_prefilter": [("nonempty", _ax_nonempty), ("P1", _ax_q3), ("P2", _ax_q0), ("P3", _ax_p3), ("P4", _ax_p4)],
    "filter_subbase": [("SB1", _ax_nonempty), ("SB2", _ax_q3), ("SB3", _ax_q0)],
    "ultrafilter_subbase": [("SB1", _ax_nonempty), ("SB2", _ax_q3), ("SB3", _ax_q0), ("SB4", _ax_p4)],
    "pi_system": [("PI1", _ax_nonempty), ("PI2", _ax_q1)],
    "lambda_system": [("L1", _ax_has_full), ("L2", _ax_l2), ("L3", _ax_l3)],
    "superfilter": [("nonempty", _ax_nonempty), ("SUF1", _ax_q0), ("SUF2", _ax_q2), ("SUF3", _ax_suf3)],
    "sigma_filter": [("SIF1", _ax_has_full), ("SIF2", _ax_q2), ("SIF3", _ax_sif3)],
    "closure_system": [("CL1", _ax_q1), ("CL2", _ax_has_full)],
    "union_closed_system": [("UC1", _ax_uc1), ("UC2", _ax_uc2)],
    "independence_system": [("IN1", _ax_in1), ("IN2", _ax_in2)],
    "majority_system": [("MA1", _ax_q4), ("MA2", _ax_ma2), ("MA3", _ax_ma3)],
}

KINDS = tuple(_AXIOMS)


def _check_input(sys: ConnectivitySystem, fam: SetFamily, kind: str) -> None:
    if kind not in _AXIOMS:
        raise InvalidParameter(f"unknown family kind {kind!r}")
    if fam.n != sys.n:
        raise GroundSetMismatch(f"family over {fam.n} elements, system over {sys.n}")


def check_family(
    sys: ConnectivitySystem,
    fam: SetFamily,
    kind: str,
    single_mode: str = "QS1",
) -> Verdict:
    """Decide whether fam satisfies the axioms of the given family kind.

    single_mode, "QS1" or "QSD1", selects which deletion axiom gates the
    single_filter and single_ultrafilter verdicts.
    """
    _check_input(sys, fam, kind)
    if single_mode not in ("QS1", "QSD1"):
        raise InvalidParameter(f"unknown single mode {single_mode!r}; expected QS1 or QSD1")
    c = _Ctx(sys, fam)
    axioms = _AXIOMS[kind]
    if single_mode == "QSD1":
        axioms = [(lab, fn) if lab != "QS1" else ("QSD1", _ax_qsd1) for lab, fn in axioms]
    for label, fn in axioms:
        witness = fn(c)
        if witness is not None:
            return Verdict(False, label, tuple(witness[:3]))
    return Verdict(True)


def _meet_counts(mem: np.ndarray, n: int) -> np.ndarray:
    """counts[S]: the number of ordered pairs (a, b) of marked masks with a & b = S.

    The superset zeta transform counts the marked masks above each S, its
    square counts the pairs whose meet lies above S, and Moebius inversion
    over supersets leaves the pairs whose meet is S exactly (Bjoerklund,
    Husfeldt, Kaski and Koivisto, STOC 2007). The counts are at most 4^n.
    """
    counts = mem.astype(np.int64)
    for i in range(n):
        cube = counts.reshape(-1, 2, 1 << i)  # axis 1 is bit i
        cube[:, 0] += cube[:, 1]
    counts *= counts
    for i in range(n):
        cube = counts.reshape(-1, 2, 1 << i)
        cube[:, 0] -= cube[:, 1]
    return counts


def derived_flags(sys: ConnectivitySystem, fam: SetFamily, kind: str) -> dict:
    """The flags that a family check report shows beside the verdict of the given kind.

    filter and ultrafilter: FT1, whether every three members, repeats
    allowed, share an element. single_filter and single_ultrafilter: whether
    each of the deletion axioms QS1 and QSD1 holds. Other kinds: none.
    """
    _check_input(sys, fam, kind)
    if kind in ("filter", "ultrafilter"):
        n, mem = sys.n, _bitset(fam.members, sys.n)
        # a & b & d = 0 iff d lies inside X - (a & b), that is, iff _reverse(_up(mem)) holds a & b
        return {"FT1": not _reverse(_up(mem, n), n) & _pack(_meet_counts(_unpack(mem, n), n) > 0)}
    if kind in ("single_filter", "single_ultrafilter"):
        c = _Ctx(sys, fam)
        return {"QS1": _ax_qs1(c) is None, "QSD1": _ax_qsd1(c) is None}
    return {}


def classify_family(sys: ConnectivitySystem, fam: SetFamily) -> FamilyFlags:
    """Principality and uniformity flags for a family over sys."""
    if fam.n != sys.n:
        raise GroundSetMismatch(f"family over {fam.n} elements, system over {sys.n}")
    eff_singletons = [1 << i for i in range(sys.n) if sys.f(1 << i) <= fam.k]
    if not eff_singletons:
        principal = "vacuous"
    elif all(s in fam.members for s in eff_singletons):
        principal = "yes"
    else:
        principal = "no"
    has_singleton_member = any(popcount(m) == 1 for m in fam.members)
    non_principal = "no" if has_singleton_member else "yes"
    uniform = all(popcount(m) == sys.n for m in fam.members)
    return FamilyFlags(principal, non_principal, uniform)


def complement_family(fam: SetFamily) -> SetFamily:
    """The family of complements; involutive."""
    full = (1 << fam.n) - 1
    return SetFamily(frozenset(full ^ m for m in fam.members), fam.k, fam.n)


def fip_check(sys: ConnectivitySystem, fam: SetFamily, a_mask: int) -> bool:
    """Whether every finite intersection over the members plus a_mask is non-empty.

    The family is finite, so this holds iff the intersection of all the
    members and a_mask is non-empty. That answer is cross-checked against
    the complement-membership route; a disagreement emits a
    FipCrossCheckWarning.
    """
    if not 0 <= a_mask <= sys.full_mask:
        raise GroundSetMismatch(f"subset mask {a_mask:#x} outside an {sys.n}-element ground set")
    verdict = check_family(sys, fam, "filter")
    if not verdict.holds:
        raise NotAFilter(verdict)
    literal = reduce(operator.and_, fam.members, a_mask) != 0
    via_complement = (sys.full_mask ^ a_mask) not in fam.members
    if literal != via_complement:
        warnings.warn(
            f"finite-intersection routes disagree for subset {a_mask:#x}: "
            f"literal={literal}, complement-membership={via_complement}",
            FipCrossCheckWarning,
        )
    return literal


def truncate_order(sys: ConnectivitySystem, fam: SetFamily, k_new: int) -> SetFamily:
    """Restrict a family to the members efficient at a smaller bound."""
    if k_new > fam.k:
        raise BoundIncrease(f"new bound {k_new} exceeds current bound {fam.k}")
    members = frozenset(m for m in fam.members if sys.f(m) <= k_new)
    return SetFamily(members, k_new, fam.n)
