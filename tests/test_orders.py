from itertools import combinations
from sys import _getframe, getrecursionlimit, setrecursionlimit

import pytest

from connsys import (
    ConnectivitySystem,
    EnumerationRequest,
    SetFamily,
    brute_force_min_cover_size,
    chain_delete_single,
    chain_extend_single,
    check_family,
    complement_family,
    derived_flags,
    duality_audit,
    enumerate_families,
    enumerate_k_efficient,
    find_max_antichain,
    find_sequence_chain,
    make_antichain,
    make_chain,
    min_chain_cover,
    run_theorem_audit,
)
from connsys.errors import (
    ChainOrderBroken,
    EfficiencyViolation,
    ElementAbsent,
    ElementAlreadyPresent,
    GroundSetMismatch,
    InvalidParameter,
    NotKEfficient,
)
from connsys.orders import THEOREM_IDS

from .conftest import all_three_element_systems, dense_vertex_cut, random_cut_systems
from .oracles import (
    oracle_all_chains,
    oracle_k_efficient,
    oracle_sequence_chain,
    oracle_symmetric_submodular_tables,
    oracle_t35,
    oracle_t36,
    oracle_t38,
)


class TestChainTypes:
    def test_chain_requires_nesting(self, trivial3):
        with pytest.raises(ChainOrderBroken):
            make_chain(trivial3, [0b001, 0b010], 0)
        with pytest.raises(ChainOrderBroken):
            make_chain(trivial3, [0b001, 0b001], 0)

    def test_chain_requires_efficiency(self, c4_edge):
        with pytest.raises(EfficiencyViolation):
            make_chain(c4_edge, [0b0001], 1)

    def test_antichain_requires_incomparability(self, trivial3):
        with pytest.raises(ChainOrderBroken):
            make_antichain(trivial3, [0b001, 0b011], 0)


class TestMaxAntichain:
    def test_two_singletons(self, trivial2):
        assert find_max_antichain(trivial2, 0).sets == (0b01, 0b10)

    def test_chain_shaped_family_gives_one(self):
        sys = ConnectivitySystem.from_table(
            ["a", "b"], {0: 0, 0b01: 1, 0b10: 1, 0b11: 0}
        )
        # at k = 0 only the empty set and X are efficient; the non-empty family is {X}
        assert find_max_antichain(sys, 0).sets == (0b11,)

    def test_c4_k2_matches_brute_force(self, c4_edge):
        family = [m for m in range(1, 16) if c4_edge.f(m) <= 2]
        assert len(family) == 13
        best = 0
        for bitset in range(1 << 13):
            chosen = [family[i] for i in range(13) if bitset >> i & 1]
            if all(
                a & ~b and b & ~a for i, a in enumerate(chosen) for b in chosen[i + 1 :]
            ):
                best = max(best, len(chosen))
        got = find_max_antichain(c4_edge, 2)
        assert len(got.sets) == best == 4


class TestMinChainCover:
    def test_v_shape(self, trivial3):
        chains = min_chain_cover(trivial3, [0b001, 0b010, 0b011], 0)
        assert len(chains) == 2
        covered = sorted(m for c in chains for m in c.sets)
        assert covered == [0b001, 0b010, 0b011]

    def test_single_set(self, trivial3):
        assert len(min_chain_cover(trivial3, [0b001], 0)) == 1

    def test_chain_family(self, trivial3):
        assert len(min_chain_cover(trivial3, [0b001, 0b011, 0b111], 0)) == 1

    def test_rejects_inefficient_members(self, c4_edge):
        with pytest.raises(NotKEfficient):
            min_chain_cover(c4_edge, [0b0101], 2)

    def test_dilworth_equality_exhaustive(self):
        for sys in all_three_element_systems((0, 1, 2)):
            for k in range(sys.max_value + 1):
                family = [m for m in range(1, 8) if sys.f(m) <= k]
                if not family:
                    continue
                antichain = find_max_antichain(sys, k)
                cover = min_chain_cover(sys, family, k)
                brute = brute_force_min_cover_size(sys, family, k)
                assert len(antichain.sets) == len(cover) == brute

    def test_matching_needs_no_call_stack(self, monkeypatch):
        """Augmenting paths run hundreds of sets deep at n = 12; the search keeps them on its own stack."""
        monkeypatch.setenv("CONNSYS_MAX_N", "12")
        cut = dense_vertex_cut(12)
        family = [m for m in enumerate_k_efficient(cut, 15) if m]
        assert len(family) == 677
        frame, depth = _getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = getrecursionlimit()
        setrecursionlimit(depth + 40)
        try:
            antichain = find_max_antichain(cut, 15)
            cover = min_chain_cover(cut, family, 15)
        finally:
            setrecursionlimit(limit)
        assert len(antichain.sets) == len(cover) == 148

    def test_cover_is_partition(self, c4_edge):
        family = [m for m in range(1, 16) if c4_edge.f(m) <= 2]
        chains = min_chain_cover(c4_edge, family, 2)
        seen = [m for c in chains for m in c.sets]
        assert sorted(seen) == sorted(family)
        assert len(set(seen)) == len(seen)


class TestSequenceChain:
    def test_two_elements(self, trivial2):
        assert find_sequence_chain(trivial2, 0).sets == (0, 0b01, 0b11)

    def test_c4_k1_none(self, c4_edge):
        assert find_sequence_chain(c4_edge, 1) is None

    def test_c4_k2_lowest_bitmask_path(self, c4_edge):
        got = find_sequence_chain(c4_edge, 2)
        assert got.sets == (0, 0b0001, 0b0011, 0b0111, 0b1111)

    def test_no_chain_below_zero(self, c4_edge):
        assert find_sequence_chain(c4_edge, -1) is None

    def test_matches_the_fifo_search(self, seeded_cut_systems, exhaustive_systems, seeded_cuts_9_to_12):
        for sys in [*seeded_cut_systems, *exhaustive_systems[4], *exhaustive_systems[5], *seeded_cuts_9_to_12]:
            for k in [*range(-1, sys.max_value + 2), 256]:
                got = find_sequence_chain(sys, k)
                want = oracle_sequence_chain(sys.array.tolist(), sys.n, k)
                assert (got.sets if got else None) == want, (sys.spec_kind, sys.n, k)


class TestChainOps:
    def test_extend(self, trivial2):
        chain = make_chain(trivial2, [0b01], 0)
        assert chain_extend_single(trivial2, chain, 1).sets == (0b01, 0b11)

    def test_extend_present(self, trivial2):
        with pytest.raises(ElementAlreadyPresent):
            chain_extend_single(trivial2, make_chain(trivial2, [0b01], 0), 0)

    def test_extend_efficiency(self, c4_edge):
        with pytest.raises(EfficiencyViolation):
            chain_extend_single(c4_edge, make_chain(c4_edge, [0b0001], 2), 2)

    def test_delete(self, trivial2):
        chain = make_chain(trivial2, [0b11], 0)
        assert chain_delete_single(trivial2, chain, 0, 1).sets == (0b01,)

    def test_delete_duplicate_breaks_order(self, trivial2):
        chain = make_chain(trivial2, [0b01, 0b11], 0)
        with pytest.raises(ChainOrderBroken):
            chain_delete_single(trivial2, chain, 1, 1)

    def test_delete_incomparable_breaks_order(self, c4_edge):
        chain = make_chain(c4_edge, [0, 0b0001, 0b0011], 2)
        with pytest.raises(ChainOrderBroken):
            chain_delete_single(c4_edge, chain, 2, 0)

    def test_delete_absent(self, trivial2):
        with pytest.raises(ElementAbsent):
            chain_delete_single(trivial2, make_chain(trivial2, [0b01], 0), 0, 1)


class TestGroundSetChecks:
    """Masks and elements outside the ground set are rejected, not read past the value array or wrapped round."""

    @pytest.mark.parametrize("sets", [[0, 1 << 9], [-1], [0b0001, 0b10001]])
    def test_make_chain(self, c4_edge, sets):
        with pytest.raises(GroundSetMismatch):
            make_chain(c4_edge, sets, 2)

    @pytest.mark.parametrize("sets", [[1 << 9], [-1]])
    def test_make_antichain(self, c4_edge, sets):
        with pytest.raises(GroundSetMismatch):
            make_antichain(c4_edge, sets, 2)

    @pytest.mark.parametrize("family", [[0b0001, 1 << 4], [-1]])
    def test_min_chain_cover(self, c4_edge, family):
        with pytest.raises(GroundSetMismatch):
            min_chain_cover(c4_edge, family, 2)

    @pytest.mark.parametrize("family", [[0b0001, 1 << 4], [-1]])
    def test_brute_force_min_cover_size(self, c4_edge, family):
        with pytest.raises(GroundSetMismatch):
            brute_force_min_cover_size(c4_edge, family, 2)

    @pytest.mark.parametrize("element", [4, 7, -1])
    def test_chain_extend_single(self, c4_edge, element):
        with pytest.raises(GroundSetMismatch):
            chain_extend_single(c4_edge, make_chain(c4_edge, [0b0001], 2), element)

    @pytest.mark.parametrize("element", [4, 7, -1])
    def test_chain_delete_single(self, c4_edge, element):
        with pytest.raises(GroundSetMismatch):
            chain_delete_single(c4_edge, make_chain(c4_edge, [0b0011], 2), 0, element)


class TestTheoremAudits:
    def test_fixed_findings_on_trivial_pair(self, trivial2):
        reports = {r.theorem_id: r for r in run_theorem_audit(trivial2, 0)}
        assert reports["TSC-no-nonprincipal-ultrafilter"].status == "verified_at_scale"
        finding = reports["TSC-no-antichain"]
        assert finding.status == "counterexample_found"
        assert finding.witness[1] == (0b01, 0b10)

    def test_tsc_audits_without_a_sequence_chain(self, c4_edge):
        """Every singleton of the 4-cycle has f = 2, so no sequence chain exists at k <= 1."""
        for k in (0, 1):
            reports = [r for r in run_theorem_audit(c4_edge, k) if r.theorem_id.startswith("TSC-")]
            assert [(r.status, r.witness, r.detail) for r in reports] == [
                ("verified_at_scale", (), "no sequence chain exists")
            ] * 3

    def test_reports_in_fixed_order(self, trivial2):
        reports = run_theorem_audit(trivial2, 0)
        assert tuple(r.theorem_id for r in reports) == THEOREM_IDS

    def test_selection(self, trivial2):
        reports = run_theorem_audit(trivial2, 0, ["T3.8-maximal-set-exclusion"])
        assert len(reports) == 1

    def test_unknown_theorem_rejected(self, trivial2):
        with pytest.raises(InvalidParameter):
            run_theorem_audit(trivial2, 0, ["T0-bogus"])

    def test_counterexamples_reverify(self, trivial2, c4_edge):
        for sys in (trivial2, c4_edge):
            for k in range(min(sys.max_value, 2) + 1):
                for report in run_theorem_audit(sys, k):
                    if report.status != "counterexample_found":
                        continue
                    if report.theorem_id == "TSC-no-antichain":
                        seq, antichain = report.witness
                        assert seq[0] == 0 and seq[-1] == sys.full_mask
                        assert all(sys.f(m) <= k for m in seq)
                        assert all(
                            a & ~b and b & ~a
                            for i, a in enumerate(antichain)
                            for b in antichain[i + 1 :]
                        )
                    elif report.theorem_id == "T3.6-exactly-one":
                        chain, uf = report.witness
                        make_chain(sys, chain, k)
                        assert check_family(sys, SetFamily.of(uf, k, sys.n), "ultrafilter").holds
                        hits = [m for m in chain if m in set(uf)]
                        assert len(hits) != 1
                    elif report.theorem_id == "co-tangle-filter":
                        members, axiom = report.witness
                        fam = SetFamily.of(members, k, sys.n)
                        assert check_family(sys, fam, "filter").holds

    def test_t35_verified_on_c4_k1(self, c4_edge):
        reports = run_theorem_audit(c4_edge, 1, ["T3.5-antichain-meets-ultrafilter"])
        assert reports[0].status == "verified_at_scale"

    def test_equivalence_list_small_scale(self):
        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                report = run_theorem_audit(sys, k, ["T2.32-equivalence-list"])[0]
                assert report.status in ("verified_at_scale", "counterexample_found")


def _first_of_seven_checks_failed(sys, ufs):
    """(U, kind, axiom) for the first U, in search order, that fails a kind T2.32 lists, in the list's order."""
    for uf in ufs:
        comp = complement_family(uf)
        for name, family, kind in (
            ("co-tangle", comp, "tangle"),
            ("superfilter", uf, "superfilter"),
            ("closure_system", uf, "closure_system"),
            ("sigma_filter", uf, "sigma_filter"),
            ("pi_system", uf, "pi_system"),
            ("weak_ultrafilter", uf, "weak_filter"),
            ("co-independence_system", comp, "independence_system"),
        ):
            verdict = check_family(sys, family, kind)
            if not verdict.holds:
                return (tuple(sorted(uf.members)), name, verdict.violated_axiom)
    return None


class TestClosedFormAudits:
    """T3.5, T3.6, T3.8 and T3.9 are decided from the axioms; the brute forces are the oracles."""

    @pytest.fixture(scope="class")
    def systems(self):
        return random_cut_systems(80612, 40, 5)

    def test_t35_matches_the_brute_force(self, systems):
        refuted = 0
        for sys in systems:
            for k in range(sys.max_value + 2):
                ufs = enumerate_families(sys, EnumerationRequest("ultrafilter", k))
                report = run_theorem_audit(sys, k, ["T3.5-antichain-meets-ultrafilter"])[0]
                found = oracle_t35(sys.array.tolist(), k, [uf.members for uf in ufs])
                if found is None:
                    assert (report.status, report.witness) == ("verified_at_scale", ())
                    continue
                refuted += 1
                assert report.status == "counterexample_found"
                antichain, uf = report.witness
                family = [m for m in oracle_k_efficient(sys.array.tolist(), k) if m]
                assert set(antichain) <= set(family)
                assert all(a & ~b and b & ~a for a, b in combinations(antichain, 2))
                assert all(any(not (a & ~m and m & ~a) for a in antichain) for m in family), "not maximal"
                assert check_family(sys, SetFamily.of(uf, k, sys.n), "ultrafilter").holds
                assert not set(antichain) & set(uf)
        assert refuted > 0

    def test_non_principal_audits_read_the_non_principal_search(self, systems):
        """TSC-no-nonprincipal-ultrafilter and T2.32 see what a non_principal_only search returns, in its order."""
        levels = 0
        for sys in systems:
            for k in range(sys.max_value + 2):
                found = enumerate_families(sys, EnumerationRequest("ultrafilter", k, non_principal_only=True))
                witnesses = [tuple(sorted(uf.members)) for uf in found]
                tsc, t232 = run_theorem_audit(sys, k, ["TSC-no-nonprincipal-ultrafilter", "T2.32-equivalence-list"])
                if tsc.status == "counterexample_found":
                    assert tsc.witness[1] == witnesses[0]
                elif tsc.witness:  # a sequence chain exists
                    assert not found
                if t232.status == "counterexample_found":
                    assert t232.witness[0] in witnesses
                elif found:
                    assert t232.detail == f"{len(found)} non-principal ultrafilters x 7 kinds"
                else:
                    assert t232.detail == "vacuous: no non-principal ultrafilter exists"
                levels += bool(found)
        assert levels > 0

    def test_t36_matches_the_brute_force(self, systems):
        for sys in systems:
            for k in range(sys.max_value + 2):
                ufs = enumerate_families(sys, EnumerationRequest("ultrafilter", k))
                report = run_theorem_audit(sys, k, ["T3.6-exactly-one"])[0]
                found = oracle_t36(sys.array.tolist(), k, [uf.members for uf in ufs])
                if found is None:
                    assert (report.status, report.witness, report.detail) == ("verified_at_scale", (), "")
                else:
                    chain, uf = found
                    hits = sum(m in uf for m in chain)
                    assert report.status == "counterexample_found"
                    assert report.witness == (chain, tuple(sorted(uf)))
                    assert report.detail == f"chain has {hits} members in the ultrafilter, not exactly one"

    def test_t38_matches_the_brute_force(self, systems):
        for sys in systems:
            for k in range(sys.max_value + 2):
                report = run_theorem_audit(sys, k, ["T3.8-maximal-set-exclusion"])[0]
                assert report.status == "verified_at_scale" and report.witness == ()
                if k == 0:
                    assert report.detail.startswith("vacuous")
                    continue
                ufs = enumerate_families(sys, EnumerationRequest("ultrafilter", k - 1))
                assert oracle_t38(sys.array.tolist(), k, [uf.members for uf in ufs]) is None
                assert report.detail == ""

    def test_t39_is_vacuous(self, systems):
        for sys in systems:
            for k in range(sys.max_value + 2):
                report = run_theorem_audit(sys, k, ["T3.9-no-chain-no-ultrafilter"])[0]
                assert next(oracle_all_chains(oracle_k_efficient(sys.array.tolist(), k))) == (0,)
                assert (report.status, report.witness) == ("verified_at_scale", ())
                assert report.detail.startswith("vacuous")

    def test_t232_matches_the_seven_checks(self):
        """T2.32 checks only co-tangle and sigma_filter; the other five follow from the axioms."""
        seen = set()
        for sys in random_cut_systems(23207, 60, 7):
            for k in range(sys.max_value + 1):
                ufs = enumerate_families(sys, EnumerationRequest("ultrafilter", k, non_principal_only=True))
                want = _first_of_seven_checks_failed(sys, ufs)
                report = run_theorem_audit(sys, k, ["T2.32-equivalence-list"])[0]
                if want is None:
                    assert (report.status, report.witness) == ("verified_at_scale", ())
                else:
                    assert (report.status, report.witness) == ("counterexample_found", want)
                seen.add((report.status, bool(ufs)))
        assert seen == {("verified_at_scale", False), ("verified_at_scale", True), ("counterexample_found", True)}

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_negative_bound_rejected(self, c4_edge, theorem):
        with pytest.raises(InvalidParameter, match="^the efficiency bound must be non-negative$"):
            run_theorem_audit(c4_edge, -1, [theorem])


def test_exhaustive_tables_are_counted():
    assert len(oracle_symmetric_submodular_tables(4, 3)) == 448
    assert len(oracle_symmetric_submodular_tables(5, 2)) == 556
    assert len(oracle_symmetric_submodular_tables(3, 2)) == len(all_three_element_systems())


def test_audits_on_every_small_system(exhaustive_systems):
    """Every audit but co-tangle-filter, and all three dualities, at every k of every system with
    n = 4 and values <= 3 (1,690 levels) and with n = 5 and values <= 2 (1,640 levels).

    co-tangle-filter is left out: its brute force scans 2^|keff| filters a level, about 136 s at
    n = 4. Its closed form cut a 50-second perfbench small run (seed 3) from 0.483 to 0.105 s
    solve_s, but raised peak_rss_mb from 38.4 to 47.9 MB, through the per-cycle lists the
    harness keeps, so it waits until the harness stops keeping them.
    """
    pinned = {  # counterexamples at n = 4 and at n = 5; the other audits report none
        "T3.6-exactly-one": [1690, 1640],
        "TSC-no-antichain": [740, 803],
        "T3.5-antichain-meets-ultrafilter": [310, 276],
        "TSC-no-nonprincipal-ultrafilter": [184, 125],
        "TSC-decomposition": [184, 125],
        "T2.32-equivalence-list": [6, 16],
    }
    theorems = [tid for tid in THEOREM_IDS if tid != "co-tangle-filter"]
    found = {tid: [0, 0] for tid in theorems}
    levels, inconsistent = [0, 0], 0
    for i, n in enumerate((4, 5)):
        for sys in exhaustive_systems[n]:
            for k in range(sys.max_value + 1):
                levels[i] += 1
                for report in run_theorem_audit(sys, k, theorems):
                    found[report.theorem_id][i] += report.status == "counterexample_found"
                for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                    inconsistent += not duality_audit(sys, k, kind).consistent
    assert (levels, inconsistent) == ([1690, 1640], 0)
    assert {tid: counts for tid, counts in found.items() if any(counts)} == pinned


def test_t232_co_tangle_subcheck_is_ft1(exhaustive_systems):
    """The complements of a non-principal ultrafilter U fail the tangle axioms exactly where U fails FT1,
    and then by T3, as _audit_t232's docstring derives; on every level of the exhaustive systems.

    FT1 holds on all 2,157 of their non-principal ultrafilters, so the subcheck never fires on them.
    """
    checked, ft1_failures = [0, 0], 0
    for i, n in enumerate((4, 5)):
        for sys in exhaustive_systems[n]:
            for k in range(sys.max_value + 1):
                for uf in enumerate_families(sys, EnumerationRequest("ultrafilter", k, non_principal_only=True)):
                    ft1 = derived_flags(sys, uf, "ultrafilter")["FT1"]
                    assert check_family(sys, complement_family(uf), "tangle").violated_axiom == (None if ft1 else "T3")
                    checked[i] += 1
                    ft1_failures += not ft1
    assert (checked, ft1_failures) == ([1170, 987], 0)


def test_co_tangle_audit_matches_its_closed_form():
    """The co-tangle brute force reports what the efficient sets alone decide.

    Every filter holds X (Q2), so the first filter the brute force reaches is
    {X}, whose complement {empty} is a tangle iff n >= 2 and only the empty
    set and X are efficient; else it fails T2 when other efficient complement
    pairs exist, and T4 otherwise. Levels above 16 efficient sets are gated,
    and k above max f adds no efficient set.
    """
    systems = random_cut_systems(80624, 12, 5)
    assert {sys.n for sys in systems} == {1, 2, 3, 4, 5}
    levels = 0
    for sys in systems:
        for k in range(sys.max_value + 1):
            keff = enumerate_k_efficient(sys, k)
            if len(keff) > 16:
                continue
            levels += 1
            report = run_theorem_audit(sys, k, ["co-tangle-filter"])[0]
            x = sys.full_mask
            if sys.n >= 2 and keff == [0, x]:
                assert (report.status, report.witness) == ("verified_at_scale", ())
            else:
                axiom = "T2" if len(keff) > 2 else "T4"
                assert (report.status, report.witness) == ("counterexample_found", ((x,), axiom))
    assert levels == 24
