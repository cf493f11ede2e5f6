import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from connsys import (
    ConnectivitySystem,
    EnumerationRequest,
    SetFamily,
    check_family,
    classify_family,
    construct_ultrafilter,
    construct_ultrafilter_with_stats,
    enumerate_families,
    extend_filter_to_ultrafilter,
    generate_from_subbase,
    generated_filter_of_prefilter,
    truncate_order,
    ultrafilter_number,
)
from connsys.construction import _IN, _OUT, _PairSearch, _TangleSearch
from connsys.core import enumerate_k_efficient
from connsys.errors import (
    EfficiencyEscape,
    EmptyIntersection,
    GroundSetTooLargeForEnumeration,
    InvalidParameter,
    NotAFilter,
)

from .conftest import all_three_element_systems, dense_vertex_cut, random_cut_systems
from .oracles import (
    oracle_closure,
    oracle_family_holds,
    oracle_generate_from_subbase,
    oracle_greedy_ultrafilter,
    oracle_ultrafilter_number,
)


def up_closed(sys, seeds, k):
    keff = [m for m in range(1 << sys.n) if sys.f(m) <= k]
    return SetFamily.of([c for c in keff if any(s & ~c == 0 for s in seeds)], k, sys.n)


class TestEnumerate:
    def test_c4_no_nonprincipal_order3(self, c4_edge):
        got = enumerate_families(c4_edge, EnumerationRequest("ultrafilter", 2, True))
        assert got == []

    def test_c4_order2_nonprincipal_is_full_set(self, c4_edge):
        got = enumerate_families(c4_edge, EnumerationRequest("ultrafilter", 1, True))
        assert [sorted(f.members) for f in got] == [[0b1111]]

    def test_c4_order3_all_are_element_fixed(self, c4_edge):
        got = enumerate_families(c4_edge, EnumerationRequest("ultrafilter", 2))
        assert len(got) == 4
        fixed = {min(f.members) for f in got}
        assert fixed == {0b0001, 0b0010, 0b0100, 0b1000}

    def test_trivial_tangle_enumeration_is_empty(self, trivial2):
        # T2 and T4 conflict on every complement pair of singletons at k = 0
        assert enumerate_families(trivial2, EnumerationRequest("tangle", 0)) == []

    def test_c4_tangles_order2(self, c4_edge):
        got = enumerate_families(c4_edge, EnumerationRequest("tangle", 1))
        assert [sorted(f.members) for f in got] == [[0]]

    def test_completeness_against_brute_force(self):
        # canonical order: lexicographic in the decision vector, "in" before "out"
        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                keff = [m for m in range(8) if sys.f(m) <= k]
                for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                    got = [f.members for f in enumerate_families(sys, EnumerationRequest(kind, k))]
                    want = []
                    for bitset in range(1 << 8):
                        members = frozenset(m for m in range(8) if bitset >> m & 1)
                        if oracle_family_holds(sys.array.tolist(), 3, members, k, kind):
                            want.append(members)
                    want.sort(key=lambda F: [m not in F for m in keff])
                    assert got == want, (sys.spec_kind, sys.n, k, kind)

    @pytest.mark.parametrize("kind", ["ultrafilter", "tangle", "single_ultrafilter"])
    def test_completeness_against_brute_force_at_n4(self, kind):
        """Every family of efficient sets, in canonical order, at each k with at most 12 of them.

        Every level has an ultrafilter, so ultrafilter levels without a family
        come from non_principal_only, which is checked at every level.
        """
        rng = random.Random(1404)
        counts = Counter()
        while sum(counts.values()) < 160:
            sys = random_cut_system(rng, 4, min_n=4)
            for k in range(sys.max_value + 1):
                keff = enumerate_k_efficient(sys, k)
                if len(keff) > 12:
                    continue
                want = []
                for bitset in range(1 << len(keff)):
                    members = frozenset(m for j, m in enumerate(keff) if bitset >> j & 1)
                    if oracle_family_holds(sys.array.tolist(), 4, members, k, kind):
                        want.append(members)
                want.sort(key=lambda F: [m not in F for m in keff])
                for non_principal_only in (False, True):
                    if non_principal_only:
                        want = [F for F in want if all(m.bit_count() != 1 for m in F)]
                    req = EnumerationRequest(kind, k, non_principal_only)
                    got = [f.members for f in enumerate_families(sys, req)]
                    assert got == want, (sys.spec_kind, sys.n, k, non_principal_only)
                    counts[min(len(got), 2)] += 1
        assert counts[0] and counts[1] and counts[2], counts

    def test_limit_and_determinism(self, k4_edge):
        for k in range(k4_edge.max_value + 1):
            for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                every = enumerate_families(k4_edge, EnumerationRequest(kind, k))
                for limit in range(1, len(every) + 1):
                    got = enumerate_families(k4_edge, EnumerationRequest(kind, k, limit=limit))
                    assert got == every[:limit], (kind, k, limit)
                assert enumerate_families(k4_edge, EnumerationRequest(kind, k)) == every

    def test_soundness_every_result_passes_check(self, k4_edge):
        for k in range(k4_edge.max_value + 1):
            for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                for fam in enumerate_families(k4_edge, EnumerationRequest(kind, k)):
                    assert check_family(k4_edge, fam, kind).holds

    def test_monotone_truncation_maps_into_lower_order(self, c4_edge):
        for k in range(1, c4_edge.max_value + 1):
            lower = {
                f.members
                for f in enumerate_families(c4_edge, EnumerationRequest("ultrafilter", k - 1))
            }
            for uf in enumerate_families(c4_edge, EnumerationRequest("ultrafilter", k)):
                cut = truncate_order(c4_edge, uf, k - 1)
                assert cut.members in lower

    def test_size_gate(self):
        edges = [(i, i + 1) for i in range(8)]
        sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(9)], 9, edges)
        with pytest.raises(GroundSetTooLargeForEnumeration):
            enumerate_families(sys, EnumerationRequest("ultrafilter", 0))

    def test_bad_requests(self):
        with pytest.raises(InvalidParameter):
            EnumerationRequest("filter", 0)
        with pytest.raises(InvalidParameter):
            EnumerationRequest("ultrafilter", 0, limit=0)


class TestExtend:
    def test_already_maximal(self, trivial1):
        fam = SetFamily.of([1], 0, 1)
        assert extend_filter_to_ultrafilter(trivial1, fam) == fam

    def test_full_set_at_k1(self, c4_edge):
        fam = SetFamily.of([0b1111], 1, 4)
        assert extend_filter_to_ultrafilter(c4_edge, fam).members == frozenset([0b1111])

    def test_extension_from_trivial_filter_at_k2(self, c4_edge):
        # the larger-cardinality tie-break walks through the co-singletons and
        # lands on the family fixed on the highest-index element
        got = extend_filter_to_ultrafilter(c4_edge, SetFamily.of([0b1111], 2, 4))
        assert got.members == up_closed(c4_edge, [0b1000], 2).members
        assert check_family(c4_edge, got, "ultrafilter").holds

    def test_requires_filter(self, c4_edge):
        with pytest.raises(NotAFilter):
            extend_filter_to_ultrafilter(c4_edge, SetFamily.of([0b0001], 2, 4))

    def test_second_set_of_a_batch_meets_the_partners(self):
        """Extending the filter above {v0, v1, v2, v3, v5, v6} at k = 7 on this 15-edge vertex cut needs
        the meets of the second set of a batch with its root's partners: without them the extension
        raises InternalError, finding an undecided pair neither side of which extends consistently."""
        edges = [(3, 4), (4, 6), (4, 5), (1, 6), (0, 2), (0, 1), (2, 5), (3, 6), (0, 3), (2, 6), (2, 4)]
        edges += [(1, 3), (2, 3), (1, 4), (0, 6)]
        sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(7)], 7, edges)
        base = up_closed(sys, [0b1101111], 7)
        want = oracle_greedy_ultrafilter(sys.array.tolist(), sys.n, 7, base.members)
        assert extend_filter_to_ultrafilter(sys, base).members == want

    def test_random_filters_extend_to_supersets(self):
        rng = random.Random(20240817)
        systems = all_three_element_systems((0, 1, 2))
        done = 0
        while done < 100:
            sys = rng.choice(systems)
            k = rng.randint(0, max(sys.max_value, 1))
            keff = [m for m in range(8) if sys.f(m) <= k and m != 0]
            if not keff:
                continue
            seed = rng.choice(keff)
            fam = up_closed(sys, [seed], k)
            if not check_family(sys, fam, "filter").holds:
                continue
            got = extend_filter_to_ultrafilter(sys, fam)
            assert fam.members <= got.members
            assert got.k == fam.k
            assert check_family(sys, got, "ultrafilter").holds
            done += 1


def random_cut_system(rng, max_n, min_n=3):
    """The vertex-cut or edge-cut system of a random graph, over min_n..max_n elements."""
    n = rng.randint(min_n, max_n)
    if rng.random() < 0.5:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        return ConnectivitySystem.from_vertex_cut([str(i) for i in range(n)], n, edges)
    nv = rng.choice([v for v in range(3, 7) if v * (v - 1) // 2 >= n])
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = sorted(rng.sample(pairs, n))
    return ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(n)], nv, edges)


def test_construct_and_extend_follow_the_greedy_rules():
    rng = random.Random(4)
    for _ in range(40):
        sys = random_cut_system(rng, 7)
        for k in range(sys.max_value + 1):
            want = oracle_greedy_ultrafilter(sys.array.tolist(), sys.n, k, None)
            assert construct_ultrafilter(sys, k).members == want, (sys.spec_kind, sys.n, k)
            keff = [m for m in range(1, 1 << sys.n) if sys.f(m) <= k]
            base = up_closed(sys, [rng.choice(keff)], k)
            want = oracle_greedy_ultrafilter(sys.array.tolist(), sys.n, k, base.members)
            assert extend_filter_to_ultrafilter(sys, base).members == want, (sys.spec_kind, sys.n, k)


def test_propagation_reaches_the_least_fixpoint(monkeypatch):
    """After every propagation the decided sets are exactly the closure of the rules."""
    real = _PairSearch._propagate
    checked = Counter()

    def decided(search, value):
        return {m for m, st in enumerate(search.state) if st == value}

    def checked_propagate(self, queue):
        seeds_in, seeds_out = sorted(decided(self, _IN)) + queue, sorted(decided(self, _OUT))
        want = oracle_closure(self.sys.array.tolist(), self.sys.n, self.k, self.kind, seeds_in, seeds_out)
        ok = real(self, queue)
        assert ok == (want is not None), (self.sys.spec_kind, self.sys.n, self.k, self.kind, seeds_in, seeds_out)
        if ok:
            assert (decided(self, _IN), decided(self, _OUT)) == want, (self.sys.spec_kind, self.sys.n, self.k, self.kind)
        checked[self.kind, ok] += 1
        return ok

    real_close = _TangleSearch._close

    def checked_close(self, ins, new):
        # every member's complement is out: the rules put it out, and a branch's parent is a fixpoint
        seeds_in = [m for m in range(1 << self.sys.n) if ins >> m & 1]
        seeds_out = [self.sys.full_mask ^ m for m in seeds_in]
        want = oracle_closure(self.sys.array.tolist(), self.sys.n, self.k, "tangle", seeds_in, seeds_out)
        closed = real_close(self, ins, new)
        assert (closed is not None) == (want is not None), (self.sys.spec_kind, self.sys.n, self.k, seeds_in)
        if closed is not None:
            got = tuple({m for m in range(1 << self.sys.n) if bits >> m & 1} for bits in closed)
            assert got == want, (self.sys.spec_kind, self.sys.n, self.k)
        checked["tangle", closed is not None] += 1
        return closed

    real_supersets = _PairSearch._supersets
    depth = 0

    def counted_supersets(self, mask):
        # the outermost call is a batch root's, made before its batch goes in
        nonlocal depth
        depth += 1
        sups = real_supersets(self, mask)
        depth -= 1
        batch = [c for c in sups if self.state[c] != _IN and c != mask]
        if depth or not batch or any(self.state[c] == _OUT for c in batch):
            return sups
        if self.kind == "single_ultrafilter":
            drops = [1 << i for i in range(self.sys.n) if mask >> i & 1 and self.sys.f(1 << i) <= self.k]
            if any(self.sys.f(c ^ e) <= self.k and self.state[c ^ e] != _IN for c in batch for e in drops):
                checked["single_ultrafilter", "batch queues c - e"] += 1
        elif any(self.sys.f(mask & t) > self.k for t in self.ins):
            checked[self.kind, "batch meets a partner"] += 1
        return sups

    monkeypatch.setattr(_PairSearch, "_propagate", checked_propagate)
    monkeypatch.setattr(_PairSearch, "_supersets", counted_supersets)
    monkeypatch.setattr(_TangleSearch, "_close", checked_close)
    rng = random.Random(8)
    systems = [
        # ultrafilter propagation conflicts are rare; this system has one at k = 3
        ConnectivitySystem.from_vertex_cut("abcde", 5, [(2, 3), (0, 2), (0, 3), (0, 1), (1, 4), (1, 2)]),
        # at k = 0 a tangle member's own pair puts out sets that no other pair does
        ConnectivitySystem.from_vertex_cut("abcdef", 6, [(1, 5), (0, 2), (0, 3)]),
        # at k = 2 a single_ultrafilter batch queues a member minus an element of its root
        ConnectivitySystem.from_vertex_cut("abcdef", 6, [(4, 5), (0, 1), (2, 5), (1, 4), (0, 4), (3, 5)]),
    ]
    for n in [2, 3, 4, 5, 6] * 3:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        systems.append(ConnectivitySystem.from_vertex_cut([str(i) for i in range(n)], n, edges))
        nv = rng.choice([v for v in range(3, 7) if v * (v - 1) // 2 >= n])
        pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
        systems.append(ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(n)], nv, sorted(rng.sample(pairs, n))))
    for sys in systems:
        for k in range(sys.max_value + 1):
            construct_ultrafilter(sys, k)
            seeds = [m for m in enumerate_k_efficient(sys, k) if m]
            extend_filter_to_ultrafilter(sys, up_closed(sys, [rng.choice(seeds)], k))
            for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                enumerate_families(sys, EnumerationRequest(kind, k))
    assert checked["filter", True]
    for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
        assert checked[kind, True] and checked[kind, False], (kind, checked)
    assert checked["filter", "batch meets a partner"] and checked["ultrafilter", "batch meets a partner"], checked
    assert checked["single_ultrafilter", "batch queues c - e"], checked


@pytest.mark.parametrize("kind", ["filter", "ultrafilter", "single_ultrafilter"])
def test_propagation_fails_on_a_superset_that_is_out(kind):
    """Seeds that no search makes: an efficient proper superset c of the seed s is out, and its complement queued.

    s goes in with c, so every such propagation fails. For single_ultrafilter
    at k = 1, with s = {a, c} and {a, c, d} out, that set is the only conflict.
    """
    sys = ConnectivitySystem.from_vertex_cut("abcde", 5, [(1, 4), (0, 1), (0, 2)])
    full = sys.full_mask
    for k in range(sys.max_value + 1):
        keff = enumerate_k_efficient(sys, k)
        for s in keff[1:]:
            for c in keff:
                if c & s == s and c != s:
                    search = _PairSearch(sys, k, kind)
                    search._set_out(c)
                    assert not search._propagate([full ^ c, s]), (k, s, c)


class TestConstruct:
    def test_singleton_system(self, trivial1):
        assert construct_ultrafilter(trivial1, 0).members == frozenset([1])

    def test_c4_order2(self, c4_edge):
        assert construct_ultrafilter(c4_edge, 1).members == frozenset([0b1111])

    def test_c4_order3_fixes_lowest_element(self, c4_edge):
        got = construct_ultrafilter(c4_edge, 2)
        assert got.members == up_closed(c4_edge, [0b0001], 2).members

    def test_verified_and_counted(self, k4_edge):
        for k in range(k4_edge.max_value + 1):
            fam, ops = construct_ultrafilter_with_stats(k4_edge, k)
            assert check_family(k4_edge, fam, "ultrafilter").holds
            assert ops <= 64 * 4**k4_edge.n

    def test_work_is_linear_in_the_efficient_sets(self):
        # the candidate scan costs 2^n; pairing every member with every other costs about 4x this bound
        rng = random.Random(0)
        pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
        sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(16)], 16, sorted(rng.sample(pairs, 48)))
        keff = enumerate_k_efficient(sys, 15)
        fam, ops = construct_ultrafilter_with_stats(sys, 15)
        assert (len(keff), len(fam.members)) == (1158, 579)
        assert ops <= 2**16 + 4 * len(keff)

    def test_batches_bound_the_work(self):
        # a set's efficient supersets go in as one batch, which meets only the members
        # whose meet with the set is not efficient; queueing each superset on its own
        # and meeting it with every member not above the set took 5523 and 69413
        search = _PairSearch(dense_vertex_cut(8), 14, "ultrafilter")
        assert len(search.run(False, None)) == 8
        assert search.ops <= 3121
        _, ops = construct_ultrafilter_with_stats(dense_vertex_cut(16), 15)
        assert ops <= 69412

    def test_negative_k_rejected(self, trivial1):
        with pytest.raises(InvalidParameter):
            construct_ultrafilter(trivial1, -1)


class TestGenerate:
    def test_intersection_then_upclosure(self, trivial3):
        got = generate_from_subbase(trivial3, SetFamily.of([0b011, 0b110], 0, 3))
        assert sorted(got.members) == [0b010, 0b011, 0b110, 0b111]

    def test_disjoint_members_raise(self, trivial2):
        with pytest.raises(EmptyIntersection):
            generate_from_subbase(trivial2, SetFamily.of([0b01, 0b10], 0, 2))

    def test_full_set_alone(self, c4_edge):
        got = generate_from_subbase(c4_edge, SetFamily.of([0b1111], 2, 4))
        assert got.members == frozenset([0b1111])

    def test_seeded_subbases_match_fixpoint_oracle(self):
        rng = random.Random(991)
        systems = all_three_element_systems((0, 1, 2))
        done = 0
        while done < 100:
            sys = rng.choice(systems)
            k = rng.randint(0, 2)
            keff = [m for m in range(1, 8) if sys.f(m) <= k]
            if not keff:
                continue
            members = rng.sample(keff, k=rng.randint(1, min(3, len(keff))))
            subbase = SetFamily.of(members, k, 3)
            status, payload = oracle_generate_from_subbase(sys.array.tolist(), 3, members, k)
            if status == "empty":
                with pytest.raises(EmptyIntersection):
                    generate_from_subbase(sys, subbase)
            elif status == "escape":
                with pytest.raises(EfficiencyEscape):
                    generate_from_subbase(sys, subbase)
            else:
                got = generate_from_subbase(sys, subbase)
                assert got.members == frozenset(payload)
                assert check_family(sys, got, "filter").holds
            done += 1

    def test_cut_systems_match_the_oracles_on_both_paths(self):
        """Members, escape witnesses and empty-intersection pairs match the oracles at n = 6..8, where most
        generated families take the array path of check_family; half the subbases are pairs whose
        intersection is not efficient, which is where escapes come from."""
        rng = random.Random(60801)
        seen = Counter()
        for n in (6, 7, 8) * 8:
            labels = [f"x{i}" for i in range(n)]
            if rng.random() < 0.5:
                edges = rng.sample(list(combinations(range(n), 2)), 2 * n)
                sys = ConnectivitySystem.from_vertex_cut(labels, n, edges)
            else:
                vertices = rng.randint(5, 7)
                edges = rng.sample(list(combinations(range(vertices), 2)), n)
                sys = ConnectivitySystem.from_edge_cut(labels, vertices, edges)
            values = sys.array.tolist()
            for _ in range(20):
                k = rng.randint(sys.max_value // 3, sys.max_value)
                keff = [m for m in range(1, 1 << n) if values[m] <= k]
                members = rng.sample(keff, rng.randint(1, min(3, len(keff))))
                crossing = [b for b in keff if b & members[0] and values[b & members[0]] > k]
                if crossing and rng.random() < 0.5:
                    members = [members[0], rng.choice(crossing)]
                status, payload = oracle_generate_from_subbase(values, n, members, k)
                subbase = SetFamily.of(members, k, n)
                if status == "empty":
                    with pytest.raises(EmptyIntersection) as exc:
                        generate_from_subbase(sys, subbase)
                    assert exc.value.witnesses == payload
                    seen["empty"] += 1
                    continue
                cores = {reduce(and_, c) for r in range(1, len(members) + 1) for c in combinations(members, r)}
                literal = up_closed(sys, [c for c in cores if values[c] <= k], k)
                if status == "escape":
                    with pytest.raises(EfficiencyEscape) as exc:
                        generate_from_subbase(sys, subbase)
                    assert (exc.value.a_mask, exc.value.b_mask, exc.value.missing_mask) == payload
                else:
                    assert generate_from_subbase(sys, subbase) == literal
                    assert literal.members == frozenset(payload)
                seen[status, len(literal) >= 17] += 1
                # a prefilter: an efficient set with some of its efficient supersets
                base = rng.choice(keff)
                above = [m for m in keff if m & base == base]
                prefilter = [base] + rng.sample(above, min(len(above), rng.randint(0, 3)))
                got = generated_filter_of_prefilter(sys, SetFamily.of(prefilter, k, n))
                assert got == up_closed(sys, prefilter, k)
                seen["prefilter", len(got) >= 17] += 1
        assert all(seen[status, True] >= 3 for status in ("ok", "escape", "prefilter")), seen
        assert seen["empty"] >= 3, seen

    def test_ultrafilter_subbase_generates_ultrafilter(self):
        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                for uf in enumerate_families(sys, EnumerationRequest("ultrafilter", k)):
                    assert check_family(sys, uf, "ultrafilter_subbase").holds
                    got = generate_from_subbase(sys, uf)
                    assert check_family(sys, got, "ultrafilter").holds


class TestUltrafilterNumber:
    def test_c4_values(self, c4_edge):
        assert ultrafilter_number(c4_edge, 2).u is None
        got = ultrafilter_number(c4_edge, 1)
        assert got.u == 1
        assert got.witness_prefilter.members == frozenset([0b1111])

    def test_singleton_system_has_none(self, trivial1):
        assert ultrafilter_number(trivial1, 0).u is None

    def test_witness_invariants(self, c4_edge):
        got = ultrafilter_number(c4_edge, 1)
        w = got.witness_prefilter
        assert len(w.members) == got.u
        assert check_family(c4_edge, w, "prefilter").holds
        gen = generated_filter_of_prefilter(c4_edge, w)
        assert check_family(c4_edge, gen, "ultrafilter").holds
        assert classify_family(c4_edge, gen).non_principal == "yes"

    def test_agrees_with_brute_force_small(self):
        from itertools import combinations

        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                got = ultrafilter_number(sys, k)
                keff = [m for m in range(1, 8) if sys.f(m) <= k]
                best = None
                for size in range(1, len(keff) + 1):
                    for combo in combinations(keff, size):
                        fam = SetFamily.of(combo, k, 3)
                        if not check_family(sys, fam, "prefilter").holds:
                            continue
                        gen = generated_filter_of_prefilter(sys, fam)
                        if not check_family(sys, gen, "ultrafilter").holds:
                            continue
                        if classify_family(sys, gen).non_principal != "yes":
                            continue
                        best = size
                        break
                    if best is not None:
                        break
                assert got.u == best

    def test_matches_the_unique_minimal_member_route(self):
        """The closed form agrees with the route through the enumerated ultrafilters, at every k."""
        systems = random_cut_systems(4242, 200, 6)
        assert {sys.n for sys in systems} == set(range(1, 7))
        levels = generated = 0
        for sys in systems:
            for k in range(sys.max_value + 2):
                ufs = enumerate_families(sys, EnumerationRequest("ultrafilter", k))
                want = oracle_ultrafilter_number(sys.array.tolist(), sys.n, k, [uf.members for uf in ufs])
                got = ultrafilter_number(sys, k)
                witness = got.witness_prefilter
                assert (got.u, witness.members if witness else None) == (
                    want[0],
                    None if want[1] is None else frozenset([want[1]]),
                ), (sys.spec_kind, sys.n, k)
                levels += 1
                generated += got.u == 1
        assert (levels, generated) == (879, 264)

    def test_negative_bound_rejected(self, c4_edge):
        with pytest.raises(InvalidParameter, match="^the efficiency bound must be non-negative$"):
            ultrafilter_number(c4_edge, -1)


@pytest.mark.parametrize("graph", ["K6", "Petersen"])
def test_tangle_refutations_at_width_scale(graph, monkeypatch):
    """Both edge-cut systems have n = 15 and branch-width 4: a tangle exists at k = 3 and none at k = 4, 5."""
    import networkx as nx

    from connsys.decomposition import duality_audit

    monkeypatch.setenv("CONNSYS_MAX_N", "16")

    def no_superset_lists(self, mask):
        raise AssertionError("a tangle search built a superset list")

    monkeypatch.setattr(_PairSearch, "_supersets", no_superset_lists)
    g = nx.complete_graph(6) if graph == "K6" else nx.petersen_graph()
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    sys = ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(len(edges))], g.number_of_nodes(), edges)
    assert sys.n == 15
    found = enumerate_families(sys, EnumerationRequest("tangle", 3, limit=1))
    assert len(found) == 1 and check_family(sys, found[0], "tangle").holds
    for k in (4, 5):
        assert enumerate_families(sys, EnumerationRequest("tangle", k, limit=1)) == []
    for k in (3, 4, 5):
        verdict = duality_audit(sys, k, "tangle")
        assert verdict.consistent and verdict.width == 4, (k, verdict)
