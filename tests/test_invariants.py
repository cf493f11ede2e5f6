"""Cross-module property tests for the documented structural invariants."""

import pytest

from connsys import (
    EnumerationRequest,
    SetFamily,
    check_family,
    complement_family,
    enumerate_families,
    extend_filter_to_ultrafilter,
    branch_width,
)
from connsys.core import enumerate_k_efficient

from .conftest import all_three_element_systems, connected_graphs_with_edges, edge_cut_system
from .oracles import oracle_all_chains, oracle_branch_width


def _families_over(keff, k, n, max_members=None):
    base = list(keff)
    for bitset in range(1 << len(base)):
        members = frozenset(base[i] for i in range(len(base)) if bitset >> i & 1)
        if max_members is not None and len(members) > max_members:
            continue
        yield SetFamily(members, k, n)


class TestImplicationLattice:
    def test_on_three_element_systems(self):
        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                keff = enumerate_k_efficient(sys, k)
                for fam in _families_over(keff, k, 3):
                    if not check_family(sys, fam, "filter").holds:
                        continue
                    assert check_family(sys, fam, "prefilter").holds
                    assert check_family(sys, fam, "pi_system").holds
                    if check_family(sys, fam, "ultrafilter").holds:
                        for kind in (
                            "superfilter",
                            "ultra_prefilter",
                            "sigma_filter",
                            "closure_system",
                            "weak_filter",
                        ):
                            assert check_family(sys, fam, kind).holds, kind

    def test_on_cycle_at_k2(self, c4_edge):
        keff = enumerate_k_efficient(c4_edge, 2)
        for fam in _families_over(keff, 2, 4):
            if not check_family(c4_edge, fam, "ultrafilter").holds:
                continue
            for kind in (
                "filter",
                "prefilter",
                "pi_system",
                "superfilter",
                "ultra_prefilter",
                "sigma_filter",
                "closure_system",
                "weak_filter",
            ):
                assert check_family(c4_edge, fam, kind).holds, kind


class TestCoTangleRelation:
    def test_tangle_complements_satisfy_q4_and_q2(self):
        from connsys.families import _Ctx, _ax_q2, _ax_q4

        systems = all_three_element_systems((0, 1, 2)) + [
            edge_cut_system(g) for g in connected_graphs_with_edges(3, 4)
        ]
        seen = 0
        for sys in systems:
            for k in range(sys.max_value + 1):
                for tangle in enumerate_families(sys, EnumerationRequest("tangle", k)):
                    comp = complement_family(tangle)
                    ctx = _Ctx(sys, comp)
                    assert _ax_q4(ctx) is None
                    assert _ax_q2(ctx) is None
                    seen += 1
        assert seen > 0


class TestSecondaryWidthScan:
    def test_branch_width_matches_bipartition_dp_up_to_six(self):
        for g in connected_graphs_with_edges(3, 6):
            sys = edge_cut_system(g)
            assert branch_width(sys).width == oracle_branch_width(sys.array.tolist(), sys.n)


class TestChainExtension:
    def test_every_chain_upcloses_to_an_extendable_filter(self):
        for sys in all_three_element_systems((0, 1)):
            for k in range(sys.max_value + 1):
                keff = [m for m in enumerate_k_efficient(sys, k) if m != 0]
                for chain in oracle_all_chains(keff):
                    fam = SetFamily.of(
                        [c for c in enumerate_k_efficient(sys, k) if any(s & ~c == 0 for s in chain)],
                        k,
                        3,
                    )
                    assert check_family(sys, fam, "filter").holds
                    uf = extend_filter_to_ultrafilter(sys, fam)
                    assert set(chain) <= uf.members
                    assert check_family(sys, uf, "ultrafilter").holds


def test_env_override_raises_size_gates(monkeypatch, capsys):
    from connsys.core import gate_limit

    assert gate_limit(8) == 8
    monkeypatch.setenv("CONNSYS_MAX_N", "12")
    assert gate_limit(8) == 12
    monkeypatch.setenv("CONNSYS_MAX_N", "junk-gate-value")
    assert gate_limit(8) == 8
    assert gate_limit(10) == 10
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "CONNSYS_MAX_N='junk-gate-value'" in err


def test_gate_messages_name_the_effective_limit(monkeypatch):
    from connsys import ConnectivitySystem, EnumerationRequest
    from connsys.errors import GroundSetTooLargeForEnumeration

    monkeypatch.setenv("CONNSYS_MAX_N", "10")
    edges = [(i, i + 1) for i in range(10)]
    sys = ConnectivitySystem.from_vertex_cut([str(i) for i in range(11)], 11, edges)
    with pytest.raises(GroundSetTooLargeForEnumeration, match="gated to n <= 10$"):
        enumerate_families(sys, EnumerationRequest("ultrafilter", 0))
