import os
import random
import re
import subprocess
import sys as _sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connsys
from connsys import (
    ConnectivitySystem,
    SetFamily,
    check_family,
    construct_ultrafilter,
    enumerate_k_efficient,
    find_sequence_chain,
    generate_from_subbase,
)
from connsys.core import (
    GATHER_MAX_N,
    GroundSet,
    _check_submodularity,
    _layout_plan,
    _local_violation,
    _quadruples,
    edge_cut_values,
    popcount,
    vertex_cut_values,
)
from connsys.errors import (
    GroundSetTooLarge,
    InputError,
    NormalizationViolation,
    SubmodularityViolation,
    SymmetryViolation,
    TableIncomplete,
)

from .oracles import (
    oracle_cut_values,
    oracle_first_local_violation,
    oracle_k_efficient,
    oracle_local_scan,
    oracle_submodularity_witness,
    oracle_vertex_cut_array,
    planted_table,
)


def test_edge_cut_single_edge_boundary(c4_edge):
    # boundary vertices of {e1} on the 4-cycle, counted directly
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    boundary = sum(
        1
        for v in range(4)
        if any(v in e for e in edges[:1]) and any(v in e for e in edges[1:])
    )
    assert boundary == 2
    assert c4_edge.f(0b0001) == 2


def test_table_two_element_valid():
    sys = ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: 1, 0b10: 1, 0b11: 0})
    assert sys.f(0b01) == 1


def test_submodularity_violation_witness_reverifies():
    table = {m: 0 for m in range(8)}
    table[0b010] = 5
    table[0b101] = 5
    with pytest.raises(SubmodularityViolation) as exc:
        ConnectivitySystem.from_table(["a", "b", "c"], table)
    a, b = exc.value.a_mask, exc.value.b_mask
    assert table[a] + table[b] < table[a & b] + table[a | b]


def test_table_values_beyond_int64_headroom_rejected():
    # validation sums up to four values in int64; 2^62 - 1 is the largest value that fits
    top = 2**62 - 1
    assert ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: top, 0b11: 0}).f(0b10) == top
    for val in (top + 1, 2**63, 2**70):
        with pytest.raises(InputError):
            ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: val, 0b11: 0})


def test_symmetry_violation_reported():
    with pytest.raises(SymmetryViolation) as exc:
        ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: 1, 0b10: 2, 0b11: 0})
    assert exc.value.mask == 0b01


def test_normalization_violation():
    with pytest.raises(NormalizationViolation):
        ConnectivitySystem.from_table(["a"], {0: 1, 1: 1})


def test_table_completion_by_symmetry():
    sys = ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: 1})
    assert sys.f(0b10) == 1
    assert sys.f(0b11) == 0


def test_table_mask_outside_ground_set():
    for mask in (0b100, -1, 2**70):
        with pytest.raises(TableIncomplete, match=re.escape(f"subset mask {mask:#x} outside the ground set")):
            ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: 1, mask: 1})


@pytest.mark.parametrize("val", [1.5, True, "2", None, np.int64(1)])
def test_table_values_must_be_ints(val):
    with pytest.raises(InputError, match=re.escape(f"value {val!r} for subset 'a' is not an integer")):
        ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: val, 0b11: 0})


def test_table_first_bad_entry_is_reported():
    with pytest.raises(NormalizationViolation, match="negative value -1 for subset 'a'"):
        ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: -1, 0b10: 1.5, 0b11: 2**70})
    with pytest.raises(InputError, match="value 1.5 for subset 'b'"):
        ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b10: 1.5, 0b01: -1})


def test_table_conflicting_keys():
    with pytest.raises(TableIncomplete, match="conflicting values for subset 'a,b'"):
        ConnectivitySystem.from_table(["a", "b", "c"], {(): 0, ("a", "b"): 1, ("b", "a"): 2})
    sys = ConnectivitySystem.from_table(["a", "b", "c"], {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 1, ("b", "a"): 1, 4: 1})
    assert sys.values == (0, 1, 1, 1, 1, 1, 1, 0)


def test_table_incomplete():
    with pytest.raises(TableIncomplete):
        ConnectivitySystem.from_table(["a", "b"], {0: 0})


def test_evaluate_empty_set_is_zero(c4_edge, c4_vertex):
    assert c4_edge.f(0) == 0
    assert c4_vertex.f(0) == 0


def test_vertex_cut_values(c4_vertex):
    assert c4_vertex.f(0b0001) == 2
    assert c4_vertex.f(0b0101) == 4


def test_evaluate_symmetry_everywhere(c4_edge):
    full = c4_edge.full_mask
    for mask in range(16):
        assert c4_edge.f(mask) == c4_edge.f(full ^ mask)


def test_enumerate_k1_only_trivial_sets(c4_edge):
    assert enumerate_k_efficient(c4_edge, 1) == [0, 0b1111]


def test_enumerate_k2_fourteen_sets(c4_edge):
    got = enumerate_k_efficient(c4_edge, 2)
    assert len(got) == 14
    assert 0b0101 not in got  # the opposite pair has f = 4
    assert 0b1010 not in got
    singletons = [m for m in got if popcount(m) == 1]
    assert len(singletons) == 4


def test_enumerate_max_value_gives_powerset(c4_edge):
    assert enumerate_k_efficient(c4_edge, c4_edge.max_value) == list(range(16))


def test_enumerate_matches_oracle_at_every_k(seeded_cut_systems):
    wide = ConnectivitySystem.from_table(["a", "b", "c"], {0: 0, 0b001: 300, 0b010: 300, 0b100: 300})
    for sys in seeded_cut_systems + [wide]:
        assert sys.array.dtype == (np.uint16 if sys is wide else np.uint8)
        for k in [*range(-1, sys.max_value + 2), 256, 2**70]:
            assert enumerate_k_efficient(sys, k) == oracle_k_efficient(sys.array.tolist(), k), (sys.spec_kind, sys.n, k)


def test_value_array_is_read_only_and_outside_equality(c4_vertex):
    assert c4_vertex.array.tolist() == list(c4_vertex.values)
    with pytest.raises(ValueError):
        c4_vertex.array[1] = 0
    table = {m: c4_vertex.f(m) for m in range(16)}
    first = ConnectivitySystem.from_table(["1", "2", "3", "4"], table)
    second = ConnectivitySystem.from_table(["1", "2", "3", "4"], dict(reversed(table.items())))
    assert first == second and hash(first) == hash(second)
    assert first.array is not second.array


def test_enumerate_monotone_and_complement_closed(k4_edge):
    full = k4_edge.full_mask
    prev = set()
    for k in range(k4_edge.max_value + 1):
        cur = set(enumerate_k_efficient(k4_edge, k))
        assert prev <= cur
        assert all(full ^ m in cur for m in cur)
        prev = cur


def test_ground_set_label_validation():
    with pytest.raises(InputError):
        GroundSet(("a", "a"))
    with pytest.raises(InputError):
        GroundSet(("a", ""))
    with pytest.raises(GroundSetTooLarge):
        GroundSet(tuple(f"x{i}" for i in range(21)))


def test_ground_set_subset_keys(c4_edge):
    g = c4_edge.ground
    assert g.subset_key(0) == ""
    assert g.subset_key(0b0101) == "e1,e3"
    assert g.mask_from_key("e1,e3") == 0b0101
    assert g.mask_from_key("") == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_random_graphs_validate_and_satisfy_lemma(nv, data):
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(nv)], nv, chosen)
    full = sys.full_mask
    for a in range(1 << nv):
        assert sys.f(a) == sys.f(full ^ a)
        assert sys.f(a) >= 0
    for a in range(1 << nv):
        for b in range(a, 1 << nv):
            assert sys.f(a) + sys.f(b) >= sys.f(a & b) + sys.f(a | b)
            assert sys.f(a) + sys.f(b) >= sys.f(a & ~b) + sys.f(b & ~a)


def test_validation_exhaustive_above_scan_cutoff():
    # a 13-element path graph is past the lowest-witness scan cutoff
    edges = [(i, i + 1) for i in range(12)]
    sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(13)], 13, edges)
    assert sys.validation == {"mode": "exhaustive", "pairs": 4**13}


def test_single_broken_local_pair_rejected_at_n13():
    # f(S) = |S|(n-|S|) + cut(S) in the complete bipartite graph between `half` and
    # the rest without the edge (a, b); lowering f(half) and f(X - half) by 3 breaks
    # only the local pair (half, half - a + b) and its complement mirror
    n, a, b = 13, 0, 12
    full = (1 << n) - 1
    half = (1 << 6) - 1
    edges = [(u, v) for u in range(6) for v in range(6, n) if (u, v) != (a, b)]
    values = []
    for mask in range(1 << n):
        size = bin(mask).count("1")
        cut = sum(1 for (u, v) in edges if (mask >> u & 1) != (mask >> v & 1))
        values.append(size * (n - size) + cut)
    values[half] -= 3
    values[full ^ half] -= 3
    broken = [
        (s | 1 << i, s | 1 << j)
        for s in range(1 << n)
        for i in range(n)
        for j in range(i + 1, n)
        if not s >> i & 1 and not s >> j & 1
        and values[s | 1 << i] + values[s | 1 << j] < values[s] + values[s | 1 << i | 1 << j]
    ]
    mirror = full ^ half ^ 1 << b
    assert sorted(broken) == sorted([(half, half ^ 1 << a | 1 << b), (mirror | 1 << a, full ^ half)])
    with pytest.raises(SubmodularityViolation) as exc:
        ConnectivitySystem.from_table([f"x{i}" for i in range(n)], dict(enumerate(values)))
    wa, wb = exc.value.a_mask, exc.value.b_mask
    assert values[wa] + values[wb] < values[wa & wb] + values[wa | wb]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.data())
def test_vertex_cut_builder_matches_oracle(nv, data):
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    got = vertex_cut_values(nv, edges)
    assert got.tolist() == oracle_cut_values("vertex", nv, nv, edges)
    assert got.dtype == np.min_scalar_type(2 * len(edges))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_edge_cut_builder_matches_oracle(nv, data):
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    got = edge_cut_values(len(edges), nv, edges)
    assert got.tolist() == oracle_cut_values("edge", len(edges), nv, edges)
    assert got.dtype == np.min_scalar_type(min(nv, 2 * len(edges)))


def test_vertex_cut_builder_at_the_dtype_boundary():
    # K20 has 190 edges, so the running sums are bounded by 380 and need uint16;
    # its cut values |S| (20 - |S|) are at most 100, so the system keeps uint8
    n = 20
    edges = list(combinations(range(n), 2))
    values = vertex_cut_values(n, edges)
    size = np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)
    assert values.dtype == np.uint16
    assert np.array_equal(values, size * (n - size))
    sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, edges)
    assert sys.array.dtype == np.uint8 and sys.max_value == 100


@pytest.mark.parametrize("n, m, limit", [(16, 48, 1200), (18, 54, 600)])
def test_large_vertex_cuts_store_one_array(n, m, limit):
    labels = [f"v{i}" for i in range(n)]
    edges = random.Random(n).sample(list(combinations(range(n), 2)), m)
    values = vertex_cut_values(n, edges)
    assert values.dtype == np.uint8
    assert np.array_equal(values, oracle_vertex_cut_array(n, edges))
    sys = ConnectivitySystem.from_vertex_cut(labels, n, edges)
    assert sys.array.dtype == np.uint8 and np.array_equal(sys.array, values)
    k = max(k for k in range(sys.max_value + 1) if np.count_nonzero(sys.array <= k) <= limit)
    assert enumerate_k_efficient(sys, k)
    fam = construct_ultrafilter(sys, k)
    assert check_family(sys, fam, "ultrafilter").holds
    assert generate_from_subbase(sys, SetFamily.of([min(fam.members)], k, n)).members <= fam.members
    for bound in (sys.max_value // 3, sys.max_value // 2):
        find_sequence_chain(sys, bound)
    twin = ConnectivitySystem.from_vertex_cut(labels, n, edges)
    assert twin == sys and hash(twin) == hash(sys) and twin.array is not sys.array
    assert ConnectivitySystem.from_vertex_cut(labels, n, edges[1:]) != sys
    assert ConnectivitySystem.from_table(labels, dict(enumerate(values.tolist()))) != sys  # another spec_kind
    assert sys.values == tuple(values.tolist())
    assert "values" not in vars(sys)  # neither the calls above nor reading values store anything


_RSS_PROBE = """
import random, resource
from itertools import combinations
from connsys import ConnectivitySystem, SetFamily, check_family
n = 20
edges = random.Random(0).sample(list(combinations(range(n), 2)), 60)
system = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, edges)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert check_family(system, SetFamily.of([system.full_mask], 0, n), "filter").holds
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_small_family_check_builds_nothing_of_size_2_to_the_n():
    """In a fresh process, deciding {X} at k = 0 on an n = 20 vertex cut raises the peak RSS by under 1 MB.

    A 2^20 tuple of Python ints would add 8 MB of pointers alone. ru_maxrss is in KiB on Linux. A process
    starts with the peak RSS of the one that exec'd it, so the probe is forked from a shell rather than
    spawned from the test process: ``; :`` keeps the shell from exec'ing it in place.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(connsys.__file__).parents[1]))
    done = subprocess.run(
        ["sh", "-c", '"$0" -c "$1"; :', _sys.executable, _RSS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1024


def _drawn_cut(n, data):
    """The cut function, as a list, of the complete graph on n vertices with edge weights 0..2 drawn from data."""
    masks = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros(1 << n, dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            cut += data.draw(st.integers(0, 2)) * ((masks >> u ^ masks >> v) & 1)
    return cut.tolist()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, GATHER_MAX_N + 2), st.data())
def test_local_check_decides_like_the_pair_scan(n, data):
    # a weighted cut function (submodular) plus a few symmetric perturbations
    full = (1 << n) - 1
    values = _drawn_cut(n, data)
    reps = list(range(1, 1 << (n - 1)))  # one of each complementary pair, except {}/X
    if reps:
        for rep, delta in data.draw(st.lists(st.tuples(st.sampled_from(reps), st.integers(-2, 2)), max_size=3)):
            values[rep] = values[full ^ rep] = max(0, values[rep] + delta)
    want = oracle_submodularity_witness(values, n)
    assert (_local_violation(np.array(values, dtype=np.int64), n) is None) == (want is None)
    labels = [f"x{i}" for i in range(n)]
    if want is None:
        assert ConnectivitySystem.from_table(labels, dict(enumerate(values))).validation["mode"] == "exhaustive"
    else:
        with pytest.raises(SubmodularityViolation) as exc:
            ConnectivitySystem.from_table(labels, dict(enumerate(values)))
        assert (exc.value.a_mask, exc.value.b_mask) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(2, GATHER_MAX_N + 2), st.sampled_from([0, 127, 128, 2**15 - 1, 2**15, 2**31, 2**62 - 1]), st.data())
def test_local_check_returns_the_first_local_violation(n, top, data):
    # max f = top crosses every boundary of the signed dtype the gains are compared in
    full = (1 << n) - 1
    cut = _drawn_cut(n, data)
    # scale * cut + rest on the proper subsets is still symmetric and submodular
    scale = top // max(max(cut), 1)
    rest = top - scale * max(cut)
    values = [0] + [scale * c + rest for c in cut[1:-1]] + [0]
    top_set = values.index(top)
    unit = data.draw(st.sampled_from([1, max(scale, 1)]))
    reps = list(range(1, 1 << (n - 1)))
    for rep, delta in data.draw(st.lists(st.tuples(st.sampled_from(reps), st.integers(-2, 2)), max_size=3)):
        values[rep] = values[full ^ rep] = min(top, max(0, values[rep] + delta * unit))
    values[top_set] = values[full ^ top_set] = top
    assert _local_violation(np.array(values, dtype=np.int64), n) == oracle_first_local_violation(values, n)


@pytest.mark.parametrize("n, m", [(GATHER_MAX_N, 30), (16, 48), (18, 54)])
def test_submodularity_proof_keeps_no_wide_temporaries(n, m):
    # the proof's temporaries, a rotated layout or the gathered values among them,
    # must stay in a narrow dtype for a function with max f below 128: in int64,
    # 2^n values take 8 bytes each and the gather 32 bytes per local pair
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    values = vertex_cut_values(n, rng.sample(pairs, m))
    assert values.max() < 128
    ground = GroundSet(tuple(f"v{i}" for i in range(n)))
    _check_submodularity(ground, values)  # the gather's indices are cached, not temporaries
    tracemalloc.start()
    try:
        _check_submodularity(ground, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if n > GATHER_MAX_N:
        assert peak <= 4 * 2**n
    else:
        assert peak <= 16 * n * (n - 1) // 2 * 2 ** (n - 2)
        assert sum(_quadruples(k).nbytes for k in range(1, GATHER_MAX_N + 1)) < 2**20


def _broken_locally(n, broken, seed):
    """Values whose broken local pairs are the (A+i, A+j) for (A, i, j) in broken.

    f(S) = sum of lin_k over k in S minus the sum of w_kl over pairs k < l in S
    has slack w_ij on every local pair with bits i, j; w is 1 on the bits of
    broken and 3 to 5 elsewhere. Raising f(T) by 2 lowers the slack of the
    local pairs that have T as their union or their meet by 2, so with
    T = A+i+j it breaks (A+i, A+j), and any other pair only if T is the meet
    or union of a local pair on the bits of another triple in broken.
    """
    rng = random.Random(seed)
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.int64)
    weak = {(i, j) for _, i, j in broken}
    for k in range(n):
        values += rng.randint(0, 9) * (masks >> k & 1)
        for l in range(k + 1, n):
            values -= (1 if (k, l) in weak else rng.randint(3, 5)) * (masks >> k & masks >> l & 1)
    for top in {a | 1 << i | 1 << j for a, i, j in broken}:
        values[top] += 2
    return values - values.min()


def _broken_cases():
    yield pytest.param(1, [], id="n1")  # no local pair
    for n in range(2, GATHER_MAX_N + 2):
        for i, j in sorted({(0, 1), (n - 2, n - 1)}):
            others = [k for k in range(n) if k not in (i, j)]
            rng = random.Random(f"{n}-{i}")
            yield pytest.param(n, [(sum(1 << k for k in others if rng.random() < 0.5), i, j)], id=f"n{n}-{i}_{j}")
        if n >= 3:
            # (0, 1) fails only at A = {n-1}, (n-2, n-1) only at A = {0}, a smaller mask
            yield pytest.param(n, [(1 << n - 1, 0, 1), (1, n - 2, n - 1)], id=f"n{n}-both")


@pytest.mark.parametrize("n, broken", _broken_cases())
def test_local_check_finds_the_first_broken_local_pair(n, broken):
    values = _broken_locally(n, broken, seed=n)
    want = next(((a | 1 << i, a | 1 << j) for a, i, j in broken), None)
    assert oracle_local_scan(values, n) == want
    assert _local_violation(values, n) == want


def _planted_cases():
    for n in range(15, 19):
        third, two_thirds = n // 3, 2 * n // 3
        yield n, [(1, 3)]  # both bits in the lowest five
        yield n, [(2, n - 3)]  # one low bit, one high bit
        yield n, [(n - 4, n - 1)]  # both bits high
        # pairs that straddle a rotation boundary
        yield n, [(third - 1, third)]
        yield n, [(two_thirds - 1, two_thirds)]
        yield n, [(4, third + 4)]
        yield n, [(0, n - 1)]
        # a later pair proved before an earlier one in another layout
        yield n, [(6, 8), (2, n - 3)]
        yield n, [(1, 3), (n - 4, n - 1)]


@pytest.mark.parametrize(
    "n, pairs", [pytest.param(n, pairs, id=f"n{n}-" + "-".join(f"{a}_{b}" for a, b in pairs)) for n, pairs in _planted_cases()]
)
def test_rotated_layouts_find_the_first_local_violation(n, pairs):
    values = planted_table(n, pairs, seed=1000 * n + pairs[0][0] * 31 + pairs[0][1])
    want = oracle_local_scan(values, n)
    assert want is not None
    a, b = want
    assert ((a & ~b).bit_length() - 1, (b & ~a).bit_length() - 1) == min(pairs)
    assert _local_violation(values, n) == want
    with pytest.raises(SubmodularityViolation) as exc:
        _check_submodularity(GroundSet(tuple(f"x{i}" for i in range(n))), values)
    assert (exc.value.a_mask, exc.value.b_mask) == want


@pytest.mark.parametrize("n", [2, 8, 14, 15, 16, 18, 20])
def test_layout_plan_proves_every_pair_once_on_long_runs(n):
    plan = _layout_plan(n)
    assert sorted(pair for _, pairs in plan for pair in pairs) == list(combinations(range(n), 2))
    assert all(list(pairs) == sorted(pairs) for _, pairs in plan)
    if n < 15:
        assert [r for r, _ in plan] == [0]
        return
    assert [r for r, _ in plan] == [0, n // 3, 2 * n // 3]
    for r, pairs in plan:
        assert all(min((i - r) % n, (j - r) % n) >= 5 for i, j in pairs)


def test_edge_cut_of_any_graph_validates(k4_edge):
    assert k4_edge.validation["mode"] == "exhaustive"
