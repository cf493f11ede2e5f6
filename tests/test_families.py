import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connsys
from connsys import (
    ConnectivitySystem,
    EnumerationRequest,
    SetFamily,
    check_family,
    classify_family,
    complement_family,
    construct_ultrafilter,
    derived_flags,
    enumerate_families,
    extend_filter_to_ultrafilter,
    fip_check,
    generate_from_subbase,
    run_theorem_audit,
    truncate_order,
)
from connsys import construction, families, orders
from connsys.core import popcount
from connsys.errors import (
    BoundIncrease,
    FipCrossCheckWarning,
    GroundSetMismatch,
    GroundSetTooLargeForEnumeration,
    InvalidParameter,
    NotAFilter,
)
from connsys.families import KINDS

from .conftest import all_three_element_systems, dense_vertex_cut, make_table_system, random_cut_systems
from .oracles import oracle_family_holds, oracle_first_violation, oracle_fip, oracle_ft1, oracle_majority_violation


def fam(members, k, n):
    return SetFamily.of(members, k, n)


def up_closed(sys, seeds, k):
    keff = [m for m in range(1 << sys.n) if sys.f(m) <= k]
    return fam([c for c in keff if any(s & ~c == 0 for s in seeds)], k, sys.n)


class TestCheckFamily:
    def test_singleton_system_ultrafilter(self, trivial1):
        assert check_family(trivial1, fam([1], 0, 1), "ultrafilter").holds

    def test_full_set_family_is_ultrafilter_at_k1(self, c4_edge):
        assert check_family(c4_edge, fam([0b1111], 1, 4), "ultrafilter").holds

    def test_empty_member_violates_q3_first(self, c4_edge):
        v = check_family(c4_edge, fam([0, 0b1111], 1, 4), "filter")
        assert not v.holds
        assert v.violated_axiom == "Q3"
        assert v.witnesses == (0,)

    def test_empty_family_rejected_for_filter_kinds(self, c4_edge):
        for kind in ("filter", "ultrafilter", "tangle", "prefilter", "ultra_prefilter"):
            v = check_family(c4_edge, fam([], 1, 4), kind)
            assert not v.holds
            assert v.violated_axiom in ("nonempty",)

    def test_tangle_axioms_literal_on_trivial_system(self, trivial2):
        # T2 and T4 cannot both hold at k = 0, so even the empty-set family fails
        v = check_family(trivial2, fam([0], 0, 2), "tangle")
        assert not v.holds
        assert v.violated_axiom == "T2"

    def test_tangle_empty_set_family_on_cycle(self, c4_edge):
        assert check_family(c4_edge, fam([0], 1, 4), "tangle").holds

    def test_tangle_t3_witnesses(self, trivial2):
        v = check_family(trivial2, fam([1, 2, 3], 0, 2), "tangle")
        assert not v.holds
        assert v.violated_axiom == "T3"

    def test_filter_q0(self, c4_edge):
        v = check_family(c4_edge, fam([0b0001], 1, 4), "filter")
        assert v.violated_axiom == "Q0"
        assert v.witnesses == (0b0001,)

    def test_filter_q2_witness(self, c4_edge):
        v = check_family(c4_edge, fam([0b0001], 2, 4), "filter")
        assert v.violated_axiom == "Q2"

    def test_ultrafilter_q4_witness(self, c4_edge):
        v = check_family(c4_edge, fam([0b1111], 2, 4), "ultrafilter")
        assert not v.holds
        assert v.violated_axiom == "Q4"

    def test_e1_fixed_family_is_ultrafilter(self, c4_edge):
        family = up_closed(c4_edge, [0b0001], 2)
        assert check_family(c4_edge, family, "ultrafilter").holds

    def test_ft1_derived_flag(self, c4_edge):
        assert derived_flags(c4_edge, up_closed(c4_edge, [0b0001], 2), "ultrafilter") == {"FT1": True}

    def test_single_filter_modes_reported(self, c4_edge):
        family = up_closed(c4_edge, [0b0001], 2)
        assert set(derived_flags(c4_edge, family, "single_filter")) == {"QS1", "QSD1"}
        assert derived_flags(c4_edge, family, "pi_system") == {}

    def test_qsd1_gates_the_single_kinds_when_selected(self):
        # f(c) = 2 > k, so QS1 never deletes c, while QSD1 finds {a,c} - c = {a} efficient and missing
        sys = make_table_system(3, {0b001: 1, 0b010: 1, 0b100: 2})
        family = fam([0b101, 0b110, 0b111], 1, 3)
        assert derived_flags(sys, family, "single_filter") == {"QS1": True, "QSD1": False}
        assert check_family(sys, family, "single_filter").holds
        v = check_family(sys, family, "single_filter", single_mode="QSD1")
        assert (v.holds, v.violated_axiom, v.witnesses) == (False, "QSD1", (0b101, 0b100))
        assert check_family(sys, family, "single_ultrafilter", single_mode="QSD1").violated_axiom == "QSD1"

    def test_unknown_single_mode_rejected(self, c4_edge):
        with pytest.raises(InvalidParameter, match="single mode 'bogus'"):
            check_family(c4_edge, fam([0b1111], 1, 4), "single_filter", single_mode="bogus")

    def test_negative_bound_rejected_by_the_family(self, c4_edge):
        with pytest.raises(InvalidParameter, match="the efficiency bound must be non-negative"):
            fam([0b1111], -5, 4)
        with pytest.raises(InvalidParameter, match="the efficiency bound must be non-negative"):
            truncate_order(c4_edge, fam([0b1111], 1, 4), -3)

    def test_prefilter(self, trivial3):
        assert check_family(trivial3, fam([0b011, 0b001], 0, 3), "prefilter").holds
        v = check_family(trivial3, fam([0b011, 0b110], 0, 3), "prefilter")
        assert v.violated_axiom == "P3"

    def test_ultra_prefilter(self, trivial3):
        assert check_family(trivial3, fam([0b001], 0, 3), "ultra_prefilter").holds
        v = check_family(trivial3, fam([0b011], 0, 3), "ultra_prefilter")
        assert v.violated_axiom == "P4"

    def test_subbase_kinds(self, trivial3):
        assert check_family(trivial3, fam([0b011, 0b110], 0, 3), "filter_subbase").holds
        v = check_family(trivial3, fam([], 0, 3), "filter_subbase")
        assert v.violated_axiom == "SB1"
        v = check_family(trivial3, fam([0], 0, 3), "filter_subbase")
        assert v.violated_axiom == "SB2"
        assert check_family(trivial3, fam([0b001], 0, 3), "ultrafilter_subbase").holds
        v = check_family(trivial3, fam([0b011, 0b110], 0, 3), "ultrafilter_subbase")
        assert v.violated_axiom == "SB4"

    def test_lambda_system(self, trivial3):
        full = 0b111
        assert check_family(trivial3, fam([full, 0], 0, 3), "lambda_system").holds
        v = check_family(trivial3, fam([full, 0b001], 0, 3), "lambda_system")
        assert v.violated_axiom == "L2"
        # disjoint union of two members must land back in the family
        v = check_family(trivial3, fam([full, 0, 0b001, 0b110, 0b010, 0b101], 0, 3), "lambda_system")
        assert v.violated_axiom == "L3"
        # only disjoint unions must land back: {a,b} | {a,c} = {a,b,c} may be missing
        trivial4 = ConnectivitySystem.from_table(list("abcd"), {m: 0 for m in range(16)})
        assert check_family(trivial4, fam([0, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010], 0, 4), "lambda_system").holds

    def test_sigma_filter_deep_intersection(self):
        sys = make_table_system(3, {0b001: 1, 0b010: 1, 0b100: 1})
        # pairwise intersections of the two-element sets are inefficient at k = 0,
        # but the triple intersection is empty and f(empty) = 0 <= k
        family = fam([0b111, 0b011, 0b101, 0b110], 0, 3)
        v = check_family(sys, family, "sigma_filter")
        assert not v.holds
        assert v.violated_axiom == "SIF3"
        assert v.witnesses[2] == 0

    def test_closure_union_independence_majority(self, trivial3):
        full = 0b111
        assert check_family(trivial3, fam([full, 0b001], 0, 3), "closure_system").holds
        v = check_family(trivial3, fam([0b001], 0, 3), "closure_system")
        assert v.violated_axiom == "CL2"
        assert check_family(trivial3, fam([0, full, 0b001], 0, 3), "union_closed_system").holds
        v = check_family(trivial3, fam([0, full, 0b001, 0b010], 0, 3), "union_closed_system")
        assert v.violated_axiom == "UC1"
        assert check_family(trivial3, fam([0, 0b001, 0b010], 0, 3), "independence_system").holds
        v = check_family(trivial3, fam([0, 0b011], 0, 3), "independence_system")
        assert v.violated_axiom == "IN2"
        v = check_family(trivial3, fam([0b001, 0b010], 0, 3), "majority_system")
        assert v.violated_axiom in ("MA1", "MA2")

    def test_weak_and_quasi_filters(self, trivial3):
        full = 0b111
        weak = fam([0b011, 0b101, 0b110, full], 0, 3)
        assert check_family(trivial3, weak, "weak_filter").holds
        assert not check_family(trivial3, weak, "filter").holds
        v = check_family(trivial3, fam([0b001, 0b010, full], 0, 3), "weak_filter")
        assert v.violated_axiom == "QW1'"
        quasi = up_closed(trivial3, [0b001], 0)
        assert check_family(trivial3, quasi, "quasi_filter").holds

    def test_ground_set_mismatch(self, c4_edge, trivial2):
        with pytest.raises(GroundSetMismatch):
            check_family(c4_edge, fam([1], 0, 2), "filter")


class TestOracleAgreement:
    def test_literal_requantifier_agrees_on_three_elements(self, trivial3):
        kinds = ("filter", "ultrafilter", "tangle", "prefilter", "pi_system", "superfilter")
        for k in (0, 1):
            for bitset in range(1 << 8):
                members = [m for m in range(8) if bitset >> m & 1]
                family = fam(members, k, 3)
                for kind in kinds:
                    got = check_family(trivial3, family, kind).holds
                    want = oracle_family_holds(trivial3.array.tolist(), 3, members, k, kind)
                    assert got == want, (kind, k, members)


class TestClassify:
    def test_no_efficient_singleton_is_vacuous(self, c4_edge):
        flags = classify_family(c4_edge, fam([0b1111], 1, 4))
        assert flags.principal == "vacuous"
        assert flags.non_principal == "yes"
        assert flags.uniform is True

    def test_singleton_member(self, trivial1):
        flags = classify_family(trivial1, fam([1], 0, 1))
        assert flags.principal == "yes"
        assert flags.non_principal == "no"
        assert flags.uniform is True

    def test_partial_singletons(self, c4_edge):
        family = up_closed(c4_edge, [0b0001], 2)
        flags = classify_family(c4_edge, family)
        assert flags.principal == "no"
        assert flags.non_principal == "no"
        assert flags.uniform is False


class TestComplement:
    def test_simple(self, trivial2, c4_edge):
        assert complement_family(fam([0], 0, 2)).members == frozenset([3])
        assert complement_family(fam([0b1111], 1, 4)).members == frozenset([0])

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(0, 15)), st.integers(0, 4))
    def test_involution(self, members, k):
        family = fam(members, k, 4)
        assert complement_family(complement_family(family)) == family


class TestFip:
    def test_trivial_filter(self, trivial2):
        assert fip_check(trivial2, fam([0b11], 0, 2), 0b01) is True

    def test_disjoint_member(self, trivial2):
        family = fam([0b01, 0b11], 0, 2)
        assert fip_check(trivial2, family, 0b10) is False

    def test_full_set_always_true(self, trivial2):
        family = fam([0b01, 0b11], 0, 2)
        assert fip_check(trivial2, family, 0b11) is True

    def test_requires_filter(self, trivial2):
        with pytest.raises(NotAFilter):
            fip_check(trivial2, fam([0b01], 0, 2), 0b10)

    @pytest.mark.parametrize("a_mask", [99, -1, 16])
    def test_subset_outside_the_ground_set_rejected(self, c4_edge, a_mask):
        with pytest.raises(GroundSetMismatch):
            fip_check(c4_edge, fam([0b1111], 1, 4), a_mask)

    def test_cross_check_warning_when_routes_disagree(self):
        # {{c}, X} is a filter at k = 0: the other supersets of {c} are inefficient;
        # adding the disjoint {a} breaks FIP while the complement {a,b} is no member
        sys = make_table_system(3, {0b001: 1, 0b010: 1, 0b100: 0})
        family = fam([0b100, 0b111], 0, 3)
        assert check_family(sys, family, "filter").holds
        with pytest.warns(FipCrossCheckWarning):
            assert fip_check(sys, family, 0b001) is False

    def test_matches_the_intersection_closure(self):
        rng = random.Random(578)
        seen = set()
        for sys in random_cut_systems(5780, 150, 6):
            for k in range(sys.max_value + 1):
                seeds = [m for m in range(1, 1 << sys.n) if sys.f(m) <= k]
                if not seeds:
                    continue
                principal = up_closed(sys, [rng.choice(seeds)], k)
                for family in (principal, extend_filter_to_ultrafilter(sys, principal)):
                    for a_mask in {rng.randrange(1 << sys.n) for _ in range(3)}:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", FipCrossCheckWarning)
                            got = fip_check(sys, family, a_mask)
                        assert got is oracle_fip(family.members, a_mask), (sys.spec_kind, sys.n, family, a_mask)
                        seen.add(got)
        assert seen == {True, False}


class TestTruncate:
    def test_truncation_to_trivial(self, c4_edge):
        family = up_closed(c4_edge, [0b0001], 2)
        got = truncate_order(c4_edge, family, 1)
        assert got.members == frozenset([0b1111])
        assert got.k == 1

    def test_identity(self, c4_edge):
        family = up_closed(c4_edge, [0b0001], 2)
        assert truncate_order(c4_edge, family, 2).members == family.members

    def test_bound_increase_rejected(self, trivial1):
        with pytest.raises(BoundIncrease):
            truncate_order(trivial1, fam([1], 0, 1), 1)

    def test_preserves_ultrafilter_verdicts_exhaustively(self):
        for sys in all_three_element_systems((0, 1)):
            max_f = sys.max_value
            for k in range(max_f + 1):
                from connsys import EnumerationRequest, enumerate_families

                for uf in enumerate_families(sys, EnumerationRequest("ultrafilter", k)):
                    for k_new in range(k + 1):
                        cut = truncate_order(sys, uf, k_new)
                        assert check_family(sys, cut, "ultrafilter").holds


class TestProperness:
    def test_filters_never_contain_complement_pairs(self, trivial3):
        for bitset in range(1 << 8):
            members = [m for m in range(8) if bitset >> m & 1]
            family = fam(members, 0, 3)
            if check_family(trivial3, family, "filter").holds:
                assert not any(0b111 ^ m in family.members for m in family.members)


def test_only_the_report_derives_flags(monkeypatch, seeded_cut_systems):
    """Enumeration, construction, extension, generation and the audits decide verdicts without derived flags."""

    def refuse(*args, **kwargs):
        raise AssertionError("derived_flags called outside the family check report")

    for module in (connsys, families, construction, orders):
        monkeypatch.setattr(module, "derived_flags", refuse, raising=False)
    for sys in seeded_cut_systems[:8]:  # n = 3..6
        for k in range(sys.max_value + 1):
            for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                enumerate_families(sys, EnumerationRequest(kind, k))
            construct_ultrafilter(sys, k)
            principal = up_closed(sys, [1], k)
            if principal.members:
                extend_filter_to_ultrafilter(sys, principal)
                generate_from_subbase(sys, principal)
            try:
                run_theorem_audit(sys, k)
            except GroundSetTooLargeForEnumeration:  # the co-tangle audit's gate
                run_theorem_audit(sys, k, [t for t in orders.THEOREM_IDS if t != "co-tangle-filter"])


def test_all_kinds_dispatch(trivial2):
    for kind in KINDS:
        check_family(trivial2, fam([0b11], 0, 2), kind)


# Kinds whose axioms include one that is decided on 2^n-bit sets only from ARRAY_MIN_MEMBERS members.
ARRAY_KINDS = (
    "filter",
    "ultrafilter",
    "single_ultrafilter",
    "tangle",
    "pi_system",
    "closure_system",
    "superfilter",
    "sigma_filter",
    "majority_system",
)


# Kinds with an axiom decided by 2^n-bit folds at every family size.
FOLDED_KINDS = (
    "weak_filter",
    "quasi_filter",
    "prefilter",
    "ultra_prefilter",
    "ultrafilter_subbase",
    "lambda_system",
    "superfilter",
    "sigma_filter",
    "union_closed_system",
    "independence_system",
)


def test_folded_kinds_decide_every_set_holding_an_element_at_n14():
    """Every set that holds element 0, on a vertex cut with 3n edges at k = max f: each folded kind in under 2 s."""
    sys = dense_vertex_cut(14)
    family = fam(range(1, 1 << 14, 2), sys.max_value, 14)
    verdicts = {}
    for kind in FOLDED_KINDS:
        started = time.perf_counter()
        verdicts[kind] = check_family(sys, family, kind).violated_axiom
        assert time.perf_counter() - started < 2.0, kind
    # everything is efficient: the family is closed under unions and meets, but lacks the empty set
    assert verdicts == dict.fromkeys(FOLDED_KINDS) | {
        "lambda_system": "L2",
        "union_closed_system": "UC2",
        "independence_system": "IN1",
    }


@pytest.mark.parametrize(
    "n, kind, keep, want",
    [
        # every efficient set but {v12}: the least two members that meet in it
        (13, "filter", lambda m: m != 1 << 12, ("Q1", (4097, 4098, 4096))),
        # every set of fewer than n/2 elements: the least three that cover X
        (15, "tangle", lambda m: 2 * popcount(m) < 15, ("T3", (1, 254, 32512))),
    ],
    ids=["filter", "tangle"],
)
def test_large_failing_families_take_their_witness_from_the_bitsets(n, kind, keep, want):
    """A failing pair axiom on thousands of members, at k = max f: found without a pairwise rescan."""
    sys = dense_vertex_cut(n)
    family = fam(filter(keep, range(1 << n)), sys.max_value, n)
    started = time.perf_counter()
    verdict = check_family(sys, family, kind)
    assert time.perf_counter() - started < 1.0
    assert (verdict.violated_axiom, verdict.witnesses) == want


def _random_cut_system(rng, n, vertex_cut):
    if vertex_cut:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(n - 1, 2 * n)))
        return ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, edges)
    vertices = rng.randint(5, 6)
    pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    return ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(n)], vertices, rng.sample(pairs, n))


def _perturbed(sys, members, k, rng):
    """Copies of members with one member dropped, or one set added of each sort that can break an axiom."""
    ordered = sorted(members)
    values = sys.array.tolist()
    eff_out = [m for m in range(1 << sys.n) if values[m] <= k and m not in members]
    not_eff = [m for m in range(1 << sys.n) if values[m] > k]
    copies = [members | {0}]
    if ordered:
        copies += [members - {rng.choice(ordered)}, members | {sys.full_mask ^ rng.choice(ordered)}]
    copies += [members | {rng.choice(pool)} for pool in (eff_out, not_eff) if pool]
    return copies


def _principal(sys, seed, k):
    values = sys.array.tolist()
    return SetFamily(frozenset(m for m in range(1 << sys.n) if values[m] <= k and m & seed == seed), k, sys.n)


def _cut_family_cases(rng, sizes):
    """Seeded vertex- and edge-cut systems, with found families and perturbed copies at every k."""
    cases = []
    for n in sizes:
        for vertex_cut in (True, False):
            sys = _random_cut_system(rng, n, vertex_cut)
            values = sys.array.tolist()
            for k in range(sys.max_value + 1):
                found = [
                    f.members
                    for kind in ("ultrafilter", "tangle", "single_ultrafilter")
                    for f in enumerate_families(sys, EnumerationRequest(kind, k, limit=1))
                ]
                found.append(construct_ultrafilter(sys, k).members)
                seeds = [m for m in range(1, 1 << sys.n) if values[m] <= k]
                if seeds:
                    principal = _principal(sys, rng.choice(seeds), k)
                    found += [principal.members, extend_filter_to_ultrafilter(sys, principal).members]
                # of a set and its complement at most one is this small, and three of them can cover X
                # where no two do, so at odd n this family may fail T3 and nothing before it
                found.append(frozenset(m for m in range(1 << n) if values[m] <= k and 2 * popcount(m) < n))
                for members in found:
                    for variant in [members, *_perturbed(sys, members, k, rng)]:
                        cases.append((sys, SetFamily(frozenset(variant), k, n)))
    return cases


@pytest.fixture(scope="module")
def cut_families():
    """Seeded cut systems, n = 5..8 and then n = 1..4, with found families and perturbed copies at every k."""
    wide = _cut_family_cases(random.Random(20240607), range(5, 9))
    return wide + _cut_family_cases(random.Random(1234), range(1, 5))


@pytest.fixture(scope="module")
def wide_cut_families():
    """Constructed ultrafilters, principal filters and their extensions on seeded n = 12..14 vertex cuts, perturbed."""
    rng = random.Random(1214)
    cases = []
    for n in (12, 13, 14):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, rng.sample(pairs, 3 * n))
        counts = np.bincount(sys.array.ravel()).cumsum()
        top = int(np.flatnonzero(counts <= 400)[-1])  # the largest k with at most 400 efficient sets
        for k in (top // 2, top):
            seed = rng.choice([m for m in range(1, 1 << n) if sys.f(m) <= k])
            principal = _principal(sys, seed, k)
            found = [construct_ultrafilter(sys, k), principal, extend_filter_to_ultrafilter(sys, principal)]
            for family in found:
                for variant in [family.members, *_perturbed(sys, family.members, k, rng)]:
                    cases.append((sys, SetFamily(frozenset(variant), k, n)))
    return cases


class TestMembershipArrays:
    def test_arrays_and_literal_scans_agree(self, cut_families, wide_cut_families, monkeypatch):
        failed_above_gate = set()
        for sys, family in cut_families + wide_cut_families:
            for kind in ARRAY_KINDS:
                monkeypatch.setattr(families, "ARRAY_MIN_MEMBERS", 0)
                on_arrays = check_family(sys, family, kind)
                monkeypatch.setattr(families, "ARRAY_MIN_MEMBERS", (1 << sys.n) + 1)
                literal = check_family(sys, family, kind)
                assert on_arrays == literal, (sys.spec_kind, sys.n, family, kind)
                if len(family) > 16 and not literal.holds:
                    failed_above_gate.add(literal.violated_axiom)
        # every array-decided axiom, under each of its labels, fails on some family above the gate
        assert failed_above_gate >= {"Q0", "Q1", "Q2", "Q4", "T1", "T2", "T3", "PI2", "CL1", "SUF2", "SIF2", "MA2"}

    @pytest.mark.parametrize("gate", ["below", "above"])
    def test_forked_axioms_match_the_literal_oracle(self, cut_families, gate, monkeypatch):
        """Every kind with an axiom of two paths gives the literal scans' verdict and witness on either path."""
        failed = set()
        for sys, family in cut_families:
            monkeypatch.setattr(families, "ARRAY_MIN_MEMBERS", 0 if gate == "above" else (1 << sys.n) + 1)
            values = sys.array.tolist()
            for kind in ARRAY_KINDS:
                got = check_family(sys, family, kind)
                want = oracle_first_violation(values, sys.n, family.members, family.k, kind)
                assert (got.violated_axiom, got.witnesses) == (want or (None, ())), (sys.spec_kind, sys.n, family, kind)
                failed.add(got.violated_axiom)
        assert failed >= {"Q0", "Q1", "Q2", "Q4", "T1", "T2", "T3", "PI2", "CL1", "SUF2", "SIF2", "MA1", "MA2"}

    def test_folded_axioms_match_the_literal_oracle(self, cut_families, wide_cut_families):
        """Every kind with an axiom decided by 2^n-bit folds gives the literal scans' verdict and witness."""
        failed = set()
        for sys, family in cut_families + wide_cut_families:
            values = sys.array.tolist()
            cases = [(family, kind) for kind in FOLDED_KINDS]
            if sys.n <= 8:
                # with every complement and X added, a family passes L1 and L2 and reaches L3; the
                # literal closure of these takes seconds a family at n >= 12
                closed = fam(family.members | {sys.full_mask ^ m for m in family.members | {0}}, family.k, sys.n)
                cases.append((closed, "lambda_system"))
            for case, kind in cases:
                got = check_family(sys, case, kind)
                want = oracle_first_violation(values, sys.n, case.members, case.k, kind)
                assert (got.violated_axiom, got.witnesses) == (want or (None, ())), (sys.spec_kind, sys.n, case, kind)
                failed.add(got.violated_axiom)
        assert failed >= {"QW1'", "QQ1'", "P3", "P4", "SB4", "L2", "L3", "SUF3", "SIF3", "UC1", "IN2"}

    def test_ft1_matches_the_triple_oracle(self, cut_families):
        seen = set()
        for sys, family in cut_families:
            want = oracle_ft1(family.members)
            assert derived_flags(sys, family, "filter")["FT1"] is want, (sys.spec_kind, sys.n, family)
            seen.add((want, len(family) > 64))
        assert seen == {(True, False), (False, False), (True, True), (False, True)}

    def test_ft1_on_a_large_filter(self):
        rng = random.Random(16)
        pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
        sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(16)], 16, rng.sample(pairs, 24))
        uf = construct_ultrafilter(sys, 4)
        assert len(uf) > 64 and check_family(sys, uf, "filter").holds
        member = min(uf.members, key=lambda m: (popcount(m), m))
        broken = fam(uf.members | {sys.full_mask ^ member}, 4, 16)
        for family in (uf, broken):
            assert derived_flags(sys, family, "ultrafilter")["FT1"] is oracle_ft1(family.members)
        assert derived_flags(sys, broken, "filter") == {"FT1": False}


class TestBitsets:
    """The 2^n-bit helpers against literal loops over the masks, with n = 1 and 2 under one byte."""

    @staticmethod
    def _samples(rng, n):
        size = 1 << n
        yield set()
        yield set(range(size))
        for density in (1 / size, 0.05, 0.3, 0.7):
            yield {c for c in range(size) if rng.random() < density}
        yield set(rng.sample(range(size), min(size, 40)))  # past the sparse listing of _masks

    def test_helpers_match_literal_loops(self):
        rng = random.Random(1010)
        for n in range(1, 11):
            size, full = 1 << n, (1 << n) - 1
            has, lack = families._element_bitsets(n)
            assert [[c for c in range(size) if h >> c & 1] for h in has] == [
                [c for c in range(size) if c >> i & 1] for i in range(n)
            ]
            assert [h | x for h, x in zip(has, lack)] == [(1 << size) - 1] * n
            assert not any(h & x for h, x in zip(has, lack))
            for marked in self._samples(rng, n):
                bits = families._bitset(marked, n)
                assert bits == sum(1 << c for c in marked) and bits < 1 << size
                array = np.zeros(size, dtype=bool)
                array[list(marked)] = True
                assert families._pack(array) == bits
                assert families._unpack(bits, n).tolist() == array.tolist()
                assert families._masks(bits, n) == sorted(marked)
                literal = {
                    "_up": {s for s in range(size) if any(m & s == m for m in marked)},
                    "_down": {s for s in range(size) if any(m & s == s for m in marked)},
                    "_strict_down": {s for s in range(size) if any(m & s == s and m != s for m in marked)},
                    "_reverse": {full ^ c for c in marked},
                }
                for name, want in literal.items():
                    assert getattr(families, name)(bits, n) == sum(1 << c for c in want), (name, n, marked)

    def test_check_family_keeps_no_wide_temporaries(self):
        # a boolean array over the 2^n masks takes 2^n bytes; the check keeps bitsets of 2^n / 8
        # bytes and unpacks only the table that a pair axiom gathers from
        sys = dense_vertex_cut(20)
        counts = np.bincount(sys.array.ravel()).cumsum()
        k = int(np.flatnonzero(counts <= 600)[-1])  # the largest k with at most 600 efficient sets
        uf = construct_ultrafilter(sys, k)
        assert len(uf) >= families.ARRAY_MIN_MEMBERS
        tracemalloc.start()
        try:
            verdict = check_family(sys, uf, "ultrafilter")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak <= 3 * 2**20


def _weighted_majority(rng, n):
    """The sets of more than half the weight under random element weights, one side of each tie."""
    weights = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n)]
    full = (1 << n) - 1
    members = set()
    for m in range(1 << n):
        twice = 2 * sum(w for i, w in enumerate(weights) if m >> i & 1)
        if twice > sum(weights):
            members.add(m)
        elif twice == sum(weights) and m < full ^ m:
            members.add(rng.choice((m, full ^ m)))
    return members


class TestMajority:
    def test_verdicts_and_witnesses_match_the_literal_scans(self):
        rng = random.Random(2408)
        seen = set()
        cases = 0
        for sys in random_cut_systems(230, 600, 7):
            values = sys.array.tolist()
            k = rng.randint(0, sys.max_value)
            base = _weighted_majority(rng, sys.n)
            variants = [
                base,
                base - {rng.choice(sorted(base))},
                base | {rng.randrange(1 << sys.n)},
                {m for m in base if values[m] <= k},
            ]
            for members in variants:
                got = check_family(sys, fam(members, k, sys.n), "majority_system")
                want = oracle_majority_violation(values, sys.n, members, k)
                assert (got.violated_axiom, got.witnesses) == (want or (None, ())), (sys.spec_kind, sys.n, members, k)
                seen.add((got.violated_axiom, len(members) >= families.ARRAY_MIN_MEMBERS))
                cases += 1
        assert cases >= 2000
        assert seen >= {(axiom, large) for axiom in ("MA1", "MA2", "MA3", None) for large in (False, True)}

    def test_every_half_or_larger_set_is_a_majority_system_at_n16(self):
        rng = random.Random(16)
        pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
        sys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(16)], 16, rng.sample(pairs, 40))
        k = sys.max_value
        half = fam([m for m in range(1 << 16) if 2 * popcount(m) >= 16], k, 16)
        assert check_family(sys, half, "majority_system").holds
        # with one eight-element set dropped, the first eight-element member moves onto it
        dropped = min(m for m in half.members if popcount(m) == 8)
        rest = half.members - {dropped}
        first = min(m for m in rest if popcount(m) == 8)
        v = check_family(sys, fam(rest, k, 16), "majority_system")
        assert (v.violated_axiom, v.witnesses) == ("MA3", (first, first & ~dropped, dropped & ~first))
