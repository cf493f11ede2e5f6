"""Ground sets, subsets as bitmasks, and validated symmetric submodular functions.

Subsets are plain ints: bit i set means element i of the ground set is in.
Function values are built and validated as one numpy array indexed by mask,
with whole-array operations in place of loops over the masks. A system
stores one form of f: the validated array, read-only and in the narrowest
unsigned dtype that holds max f. Scans over all subsets (such as the
k-efficient index) read it whole, single lookups read one entry, and the
branch-width DP, which looks up every entry many times, copies it to a
list that lives only while it runs.
"""

from __future__ import annotations

import functools
import os
import sys as _sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    GroundSetTooLarge,
    InputError,
    InternalError,
    NormalizationViolation,
    SubmodularityViolation,
    SymmetryViolation,
    TableIncomplete,
)

MAX_N = 20
WITNESS_SCAN_MAX_N = 12
MAX_VALUE = 2**62 - 1  # keeps every sum that validation forms within int64


def gate_limit(default: int) -> int:
    """Size gate, overridable via CONNSYS_MAX_N at the user's risk."""
    override = _max_n_override(os.environ.get("CONNSYS_MAX_N", ""))
    return default if override is None else max(default, override)


@functools.lru_cache(maxsize=None)
def _max_n_override(env: str) -> int | None:
    """Parse CONNSYS_MAX_N; a non-integer is ignored with one warning per distinct value."""
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        _sys.stderr.write(f"connsys: warning: ignoring non-integer CONNSYS_MAX_N={env!r}\n")
        return None


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class GroundSet:
    """An ordered, indexed universe of distinct element labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise GroundSetTooLarge("ground set must contain at least one element")
        limit = gate_limit(MAX_N)
        if len(self.labels) > limit:
            raise GroundSetTooLarge(f"ground set of size {len(self.labels)} exceeds the cap of {limit}")
        if any(not lab for lab in self.labels):
            raise InputError("element labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("element labels must be unique")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in range(self.n) if mask >> i & 1)

    def subset_key(self, mask: int) -> str:
        """Comma-joined labels in ground-set order; empty string for the empty set."""
        return ",".join(self.labels_of(mask))

    def mask_from_key(self, key: str) -> int:
        if key == "":
            return 0
        return self.mask_of(key.split(","))


def edge_cut_values(labels_count: int, vertices: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Boundary-vertex function on edge subsets: vertices incident to both sides.

    Values come in the narrowest unsigned dtype that holds their bound,
    min(vertices, 2 |E|). Only the vertices that some edge touches can be on
    a boundary, so the work does not depend on ``vertices``.
    """
    incident = {}  # incident[v] = mask of edges touching v
    for i, (u, v) in enumerate(edges):
        incident[u] = incident.get(u, 0) | 1 << i
        incident[v] = incident.get(v, 0) | 1 << i
    idx = np.arange(1 << labels_count, dtype=np.uint32)
    values = np.zeros(1 << labels_count, dtype=np.min_scalar_type(min(vertices, 2 * len(edges))))
    for inc in incident.values():
        inside = idx & inc  # edges at this vertex inside the subset; the rest are outside
        values += (inside != 0) & (inside != inc)
    return values


def vertex_cut_values(vertices: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Cut function on vertex subsets: edges crossing the bipartition.

    Values come in the narrowest unsigned dtype that holds 2 |E|, the bound
    of the running sums below.
    """
    neighbours = [0] * vertices
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    idx = np.arange(1 << vertices, dtype=np.uint32)
    values = np.zeros(1 << vertices, dtype=np.min_scalar_type(2 * len(edges)))
    # masks with highest bit v, by cut(S + v) = cut(S) + deg(v) - 2 |N(v) & S| for S below bit v
    for v, nb in enumerate(neighbours):
        high = values[1 << v : 2 << v]
        np.add(values[: 1 << v], nb.bit_count(), out=high)
        high -= 2 * np.bitwise_count(idx[: 1 << v] & nb)
    return values


def complete_table(ground: GroundSet, table: dict[int, int]) -> np.ndarray:
    """Fill missing subset values by symmetry from complements; require totality after.

    table maps int masks to int values, not bools. The entries are checked on
    whole arrays; a failing check reports the first bad entry in table order.
    """
    if not set(map(type, table.values())) <= {int}:
        _reject_first_bad_entry(ground, table)
    try:
        masks = np.fromiter(table.keys(), np.int64, len(table))
        vals = np.fromiter(table.values(), np.int64, len(table))
    except OverflowError:  # some mask or value beyond int64
        _reject_first_bad_entry(ground, table)
    if ((masks < 0) | (masks > ground.full_mask) | (vals < 0) | (vals > MAX_VALUE)).any():
        _reject_first_bad_entry(ground, table)
    values = np.full(1 << ground.n, -1, dtype=np.int64)  # -1 marks a missing value
    values[masks] = vals
    # values[::-1][mask] is the value of the complement full ^ mask
    values = np.where(values < 0, values[::-1], values)
    missing = np.flatnonzero(values < 0)
    if missing.size:
        raise TableIncomplete(
            f"no value for subset {ground.subset_key(int(missing[0]))!r} or its complement"
        )
    return values


def _reject_first_bad_entry(ground: GroundSet, table: dict[int, int]) -> None:
    """Raise for the first entry, in table order, whose mask or value is not allowed."""
    for mask, val in table.items():
        if mask < 0 or mask > ground.full_mask:
            raise TableIncomplete(f"subset mask {mask:#x} outside the ground set")
        if type(val) is not int:
            raise InputError(f"value {val!r} for subset {ground.subset_key(mask)!r} is not an integer")
        if val < 0:
            raise NormalizationViolation(f"negative value {val} for subset {ground.subset_key(mask)!r}")
        if val > MAX_VALUE:
            raise InputError(f"value {val} for subset {ground.subset_key(mask)!r} exceeds {MAX_VALUE}")
    raise InternalError("the whole-array table checks and the entry scan disagree")


def _check_symmetry(ground: GroundSet, values: np.ndarray) -> None:
    # the lowest mismatching mask is below its complement, which mismatches too
    bad = np.flatnonzero(values != values[::-1])
    if bad.size:
        mask = int(bad[0])
        comp = ground.full_mask ^ mask
        keys = ground.subset_key(mask), ground.subset_key(comp)
        raise SymmetryViolation(
            mask, f"f({keys[0]!r}) = {values[mask]} but f({keys[1]!r}) = {values[comp]}", keys
        )


# A pass whose inner runs hold at least 2^5 = 32 values runs at numpy's full speed.
_RUN_BITS = 5
# Up to this n, where most passes run over fewer than 2^_RUN_BITS values, one
# gather from cached indices proves every local pair faster than the passes.
# The indices of n take 32 C(n, 2) 2^(n-2) bytes: 360 KB at n = 10 (600 KB
# for n = 2..10 together) and 880 KB at n = 11, where the switch stops.
GATHER_MAX_N = 10


@functools.lru_cache(maxsize=None)
def _layout_plan(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each rotation r, the local pairs (i, j), i < j, proved in its layout, in increasing order.

    The layout of rotation r is the value array with mask bit b moved to bit
    (b - r) mod n. Each pair goes to the first of the rotations 0, n // 3 and
    2n // 3 that moves both of its bits to _RUN_BITS or above. From
    n = 3 * _RUN_BITS on, the three windows of bits moved below that are
    disjoint, so every pair has such a rotation; below it, only the identity
    layout exists.
    """
    rotations = (0, n // 3, 2 * n // 3) if n >= 3 * _RUN_BITS else (0,)
    plan = {r: [] for r in rotations}
    for i, j in combinations(range(n), 2):
        plan[next((r for r in rotations if min((i - r) % n, (j - r) % n) >= _RUN_BITS), 0)].append((i, j))
    return tuple((r, tuple(pairs)) for r, pairs in plan.items())


@functools.lru_cache(maxsize=None)
def _quadruples(n: int) -> np.ndarray:
    """The masks A+i, A, A+i+j, A+j as four intp rows, one column per local pair.

    Columns run over i < j, then j, then the masks A without bits i and j,
    each increasing. The array is read-only.
    """
    masks = np.arange(1 << n, dtype=np.intp)
    blocks = [np.zeros((4, 0), np.intp)]
    for i, j in combinations(range(n), 2):
        a = masks[(masks >> i | masks >> j) & 1 == 0]
        blocks.append(np.stack((a | 1 << i, a, a | 1 << i | 1 << j, a | 1 << j)))
    quads = np.concatenate(blocks, axis=1)
    quads.flags.writeable = False
    return quads


def _gains(layout: np.ndarray, p: int) -> np.ndarray:
    """f(A+p) - f(A) for every A without bit p, indexed by A with bit p removed."""
    cube = layout.reshape(-1, 2, 1 << p)  # axis 1 is bit p
    return (cube[:, 1] - cube[:, 0]).ravel()


def _rises(gain: np.ndarray, q: int) -> np.ndarray:
    """gain(A+q) > gain(A) for every A without bit q of the gain index, indexed by A with it removed."""
    g = gain.reshape(-1, 2, 1 << q)
    return g[:, 1] > g[:, 0]


def _local_violation(values: np.ndarray, n: int) -> tuple[int, int] | None:
    """A pair (A+i, A+j) with f(A+i) + f(A+j) < f(A) + f(A+i+j), or None if there is none.

    f is submodular exactly when no such pair exists (Fujishige, Submodular
    Functions and Optimization), so this proves submodularity in O(n^2 2^n).
    The values, all in [0, max f], are cast once to the narrowest signed
    dtype that holds [-max f, max f], and the pair fails where the gain
    f(A+i) - f(A) is below f(A+i+j) - f(A+j). Gains are compared, never
    summed, so nothing overflows. The witness is the first failing (i, j, A)
    with i, then j, then the mask A increasing.

    Up to GATHER_MAX_N, one gather reads all four values of every local pair
    through the indices of _quadruples, which are in witness order, and the
    first failing column is the witness. Above it, the strided passes below
    do the same in O(n^2) calls that each run over long contiguous runs;
    at small n those runs are shorter than 2^_RUN_BITS values and the calls
    cost more than the gather. For each bit i the gains come from the 3-d
    view (high bits, bit i, low bits) as a 2^(n-1) array indexed by A with
    bit i removed; for each j > i the pair fails where gain(A+j) > gain(A).
    Each pair is proved in the layout that _layout_plan gives it, where both
    of its bits are high. The layouts are made one at a time, each by one
    transposed copy. Once a failing pair is known, only the pairs before it
    are proved, and its witness is found again in the identity layout.
    """
    v = values.astype(np.min_scalar_type(-1 - int(values.max())))
    if n <= GATHER_MAX_N:
        quads = _quadruples(n)
        g = v[quads]
        fails = g[0] - g[1] < g[2] - g[3]
        if not fails.any():
            return None
        col = int(fails.argmax())
        return int(quads[0, col]), int(quads[3, col])
    first = None  # the least failing pair found so far
    for r, pairs in _layout_plan(n):
        layout = v if r == 0 else v.reshape(-1, 1 << r).T.ravel()  # bits r.. become the low bits
        gain_bit = None
        for i, j in pairs:
            if first is not None and (i, j) >= first:
                break
            p, q = (i - r) % n, (j - r) % n
            if gain_bit != i:
                gain, gain_bit = _gains(layout, p), i
            if _rises(gain, q - (q > p)).any():  # bit q is one lower once bit p is removed
                first = i, j
                break
        layout = gain = None  # so that at most one rotated copy is alive
    if first is None:
        return None
    i, j = first
    hi, lo = divmod(int(np.argmax(_rises(_gains(v, i), j - 1))), 1 << (j - 1))
    rest = hi << j | lo  # A with bit i removed
    a = (rest >> i) << (i + 1) | rest & ((1 << i) - 1)
    return a | 1 << i, a | 1 << j


def _lowest_violation(values: np.ndarray, n: int) -> tuple[int, int] | None:
    """The lowest violating (A, B) pair in row-major order, by an O(4^n) scan."""
    idx = np.arange(1 << n, dtype=np.int64)
    for a in range(1 << n):
        bad = np.flatnonzero(values[a] + values < values[a & idx] + values[a | idx])
        if bad.size:
            return a, int(bad[0])
    return None


def _check_submodularity(ground: GroundSet, values: np.ndarray) -> dict:
    """Exact at every n; for small n the reported witness is the lowest violating pair.

    _local_violation decides, by one gather up to GATHER_MAX_N and by
    strided passes above it; only a failing proof runs the O(4^n) scan for
    the lowest pair, up to WITNESS_SCAN_MAX_N.
    """
    n = ground.n
    witness = _local_violation(values, n)
    if witness is not None:
        if n <= WITNESS_SCAN_MAX_N:
            witness = _lowest_violation(values, n)
        a, b = witness
        keys = ground.subset_key(a), ground.subset_key(b)
        raise SubmodularityViolation(
            a,
            b,
            f"f({keys[0]!r}) + f({keys[1]!r}) = {values[a] + values[b]} < {values[a & b] + values[a | b]}",
            keys,
        )
    return {"mode": "exhaustive", "pairs": 4**n}


@dataclass(frozen=True, eq=False)
class ConnectivitySystem:
    """A ground set with a total, validated symmetric submodular function.

    Immutable after construction. It stores f in one form: ``array``, the
    validated values indexed by mask, read-only and in the narrowest unsigned
    dtype that holds max f. ``f(mask)`` reads one value from it; ``values``
    builds the whole function as a tuple of Python ints on each access and
    keeps nothing. Equality and hashing use the ground set, ``spec_kind`` and
    the array's bytes. ``widths`` memoises the verified width results by mode
    (``"branch"``, ``"linear"``), which depend on the function alone; it
    takes no part in equality or hashing. Concurrent readers may each
    compute a width once, and store equal results.
    """

    ground: GroundSet
    spec_kind: str
    array: np.ndarray = field(repr=False)
    validation: dict = field(default_factory=dict)
    widths: dict = field(default_factory=dict, repr=False)

    def _key(self) -> tuple:
        return self.ground, self.spec_kind, self.array.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConnectivitySystem):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask

    def f(self, mask: int) -> int:
        return self.array.item(mask)

    @property
    def max_value(self) -> int:
        return int(self.array.max())

    @classmethod
    def _build(cls, ground, values: np.ndarray, spec_kind) -> "ConnectivitySystem":
        """Validate values and keep them."""
        if values[0] != 0:
            raise NormalizationViolation(f"f(empty set) = {values[0]} but must be 0")
        if values[ground.full_mask] != 0:
            raise NormalizationViolation(f"f(X) = {values[ground.full_mask]} but must be 0")
        _check_symmetry(ground, values)
        info = _check_submodularity(ground, values)
        dtype = np.min_scalar_type(int(values.max()))
        array = values if values.dtype == dtype else values.astype(dtype)
        array.flags.writeable = False
        return cls(ground, spec_kind, array, info)

    @classmethod
    def from_table(cls, labels, table: dict) -> "ConnectivitySystem":
        """table maps subset masks (or label iterables) to natural values: ints, not bools."""
        ground = GroundSet(tuple(labels))
        by_mask = table
        if not set(map(type, table)) <= {int}:
            by_mask = {}
            for key, val in table.items():
                mask = key if isinstance(key, int) else ground.mask_of(key)
                if type(val) is not int:  # before the comparison below, where nan != nan
                    _reject_first_bad_entry(ground, {**by_mask, mask: val})
                if by_mask.setdefault(mask, val) != val:
                    raise TableIncomplete(f"conflicting values for subset {ground.subset_key(mask)!r}")
        values = complete_table(ground, by_mask)
        return cls._build(ground, values, "table")

    @classmethod
    def from_edge_cut(cls, labels, vertices: int, edges) -> "ConnectivitySystem":
        ground = GroundSet(tuple(labels))
        edges = [tuple(e) for e in edges]
        if len(edges) != ground.n:
            raise TableIncomplete("one ground-set label per edge is required")
        _check_simple_graph(vertices, edges)
        values = edge_cut_values(ground.n, vertices, edges)
        return cls._build(ground, values, "graph_edge_cut")

    @classmethod
    def from_vertex_cut(cls, labels, vertices: int, edges) -> "ConnectivitySystem":
        ground = GroundSet(tuple(labels))
        edges = [tuple(e) for e in edges]
        if vertices != ground.n:
            raise TableIncomplete("one ground-set label per vertex is required")
        _check_simple_graph(vertices, edges)
        values = vertex_cut_values(vertices, edges)
        return cls._build(ground, values, "graph_vertex_cut")


def _check_simple_graph(vertices: int, edges) -> None:
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise TableIncomplete(f"edge ({u}, {v}) references a vertex outside range")
        if u == v:
            raise TableIncomplete(f"loop edge ({u}, {v}) not allowed in a simple graph")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise TableIncomplete(f"duplicate edge ({u}, {v})")
        seen.add(key)


def enumerate_k_efficient(sys: ConnectivitySystem, k: int) -> list[int]:
    """All subsets with f(A) <= k, in increasing bitmask order."""
    return (sys.array <= k).nonzero()[0].tolist()
