"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import json
import random

import pytest

from connsys import (
    ConnectivitySystem,
    EnumerationRequest,
    SetFamily,
    branch_width,
    brute_force_min_cover_size,
    check_family,
    classify_family,
    construct_ultrafilter_with_stats,
    decomposition_width,
    enumerate_families,
    extend_filter_to_ultrafilter,
    find_max_antichain,
    generate_from_subbase,
    linear_width,
    min_chain_cover,
)
from connsys.cli import main
from connsys.errors import (
    EfficiencyEscape,
    EmptyIntersection,
    NormalizationViolation,
    SubmodularityViolation,
    SymmetryViolation,
)

from .conftest import all_three_element_systems, connected_graphs_with_edges, edge_cut_system
from .oracles import oracle_family_holds, oracle_generate_from_subbase

_corpus_cache = {}


def corpus(min_edges, max_edges):
    key = (min_edges, max_edges)
    if key not in _corpus_cache:
        _corpus_cache[key] = [
            edge_cut_system(g) for g in connected_graphs_with_edges(min_edges, max_edges)
        ]
    return _corpus_cache[key]


def up_closed(sys, seeds, k):
    keff = [m for m in range(1 << sys.n) if sys.f(m) <= k]
    return SetFamily.of([c for c in keff if any(s & ~c == 0 for s in seeds)], k, sys.n)


def report(line):
    print(f"\n{line}")


def test_criterion_01_validation_soundness():
    import networkx as nx

    graphs = [
        g
        for g in nx.graph_atlas_g()[1:]
        if 1 <= g.number_of_nodes() <= 5 and nx.is_connected(g)
    ]
    checked = 0
    for g in graphs:
        edges = sorted(tuple(sorted(e)) for e in g.edges())
        nv = g.number_of_nodes()
        vsys = ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(nv)], nv, edges)
        assert vsys.validation["mode"] == "exhaustive"
        checked += 1
        if edges:
            esys = ConnectivitySystem.from_edge_cut(
                [f"e{i}" for i in range(len(edges))], nv, edges
            )
            assert esys.validation["mode"] == "exhaustive"
            checked += 1

    with pytest.raises(SymmetryViolation) as sym:
        ConnectivitySystem.from_table(["a", "b"], {0: 0, 0b01: 1, 0b10: 2, 0b11: 0})
    assert sym.value.mask == 0b01

    bad = {m: 0 for m in range(8)}
    bad[0b010] = bad[0b101] = 5
    with pytest.raises(SubmodularityViolation) as sub:
        ConnectivitySystem.from_table(["a", "b", "c"], bad)
    a, b = sub.value.a_mask, sub.value.b_mask
    assert bad[a] + bad[b] < bad[a & b] + bad[a | b]

    with pytest.raises(NormalizationViolation):
        ConnectivitySystem.from_table(["a"], {0: 2, 1: 2})

    report(f"PASS criterion 1: validation soundness on {checked} graph systems + 3 rejections")


def test_criterion_02_axiom_oracle_equivalence():
    kinds = ("filter", "ultrafilter", "tangle", "prefilter", "pi_system", "superfilter", "quasi_filter")
    kinds += ("weak_filter", "ultra_prefilter", "ultrafilter_subbase", "sigma_filter", "lambda_system")
    kinds += ("union_closed_system", "independence_system")
    systems = all_three_element_systems((0, 1, 2))
    assert systems, "no valid three-element tables"
    compared = 0
    for sys in systems:
        for k in (0, 1, 2):
            for bitset in range(1 << 8):
                members = [m for m in range(8) if bitset >> m & 1]
                fam = SetFamily.of(members, k, 3)
                for kind in kinds:
                    got = check_family(sys, fam, kind).holds
                    want = oracle_family_holds(sys.array.tolist(), 3, members, k, kind)
                    assert got == want, (sys.spec_kind, sys.n, k, members, kind)
                    compared += 1
    report(
        f"PASS criterion 2: check_family matches the literal re-quantifier on "
        f"{len(systems)} systems ({compared} verdicts)"
    )


def test_criterion_03_ultrafilter_branch_width_duality():
    systems = corpus(3, 7)
    checked = 0
    for sys in systems:
        width = branch_width(sys).width
        for k in range(sys.max_value + 1):
            found = enumerate_families(
                sys, EnumerationRequest("ultrafilter", k, non_principal_only=True, limit=1)
            )
            exists = bool(found)
            assert exists == (width > k), (sys.spec_kind, sys.n, k, width)
            if exists:
                assert check_family(sys, found[0], "ultrafilter").holds
                assert classify_family(sys, found[0]).non_principal == "yes"
            checked += 1
    report(
        f"PASS criterion 3: ultrafilter/branch-width duality on {len(systems)} graphs "
        f"({checked} (graph, k) pairs, zero inconsistencies)"
    )


def test_criterion_04_tangle_duality():
    systems = corpus(3, 7)
    checked = 0
    k0_records = []
    for sys in systems:
        width = branch_width(sys).width
        for k in range(sys.max_value + 1):
            found = enumerate_families(sys, EnumerationRequest("tangle", k, limit=1))
            exists = bool(found)
            if k == 0:
                k0_records.append(exists == (width > 0))
                continue
            assert exists == (width > k), (sys.spec_kind, sys.n, k, width)
            checked += 1
    agree = sum(k0_records)
    report(
        f"PASS criterion 4: tangle duality for k >= 1 on {len(systems)} graphs "
        f"({checked} pairs); k = 0 recorded, consistent on {agree}/{len(k0_records)}"
    )


def test_criterion_05_linear_width_single_ultrafilter_duality():
    systems = corpus(3, 6)
    checked = 0
    for sys in systems:
        width = linear_width(sys).width
        for k in range(sys.max_value + 1):
            found = enumerate_families(
                sys,
                EnumerationRequest("single_ultrafilter", k, non_principal_only=True, limit=1),
            )
            exists = bool(found)
            assert exists == (width > k), (sys.spec_kind, sys.n, k, width)
            checked += 1
    report(
        f"PASS criterion 5: linear-width/single-ultrafilter duality on "
        f"{len(systems)} graphs ({checked} pairs)"
    )


def test_criterion_06_tukey_extension():
    rng = random.Random(6021023)
    small_graphs = [s for s in corpus(3, 5) if s.n <= 5]
    tables = all_three_element_systems((0, 1, 2))
    pool = small_graphs + tables
    done = 0
    while done < 200:
        sys = rng.choice(pool)
        k = rng.randint(0, sys.max_value)
        keff = [m for m in range(1, 1 << sys.n) if sys.f(m) <= k]
        if not keff:
            continue
        seeds = rng.sample(keff, k=rng.randint(1, min(2, len(keff))))
        fam = up_closed(sys, seeds, k)
        if not fam.members or not check_family(sys, fam, "filter").holds:
            continue
        got = extend_filter_to_ultrafilter(sys, fam)
        assert fam.members <= got.members
        assert got.k == fam.k
        assert check_family(sys, got, "ultrafilter").holds
        done += 1
    report("PASS criterion 6: 200 seeded random filters extend to verified ultrafilters")


def test_criterion_07_construction_algorithm():
    systems = corpus(3, 7)
    built = 0
    for sys in systems:
        budget = 64 * 4**sys.n
        for k in range(sys.max_value + 1):
            fam, ops = construct_ultrafilter_with_stats(sys, k)
            assert check_family(sys, fam, "ultrafilter").holds
            assert ops <= budget, (sys.spec_kind, sys.n, k, ops, budget)
            built += 1
    report(
        f"PASS criterion 7: construct_ultrafilter verified with operation counts "
        f"within 64*4^n on {built} (graph, k) pairs"
    )


def test_criterion_08_dilworth():
    systems = [s for s in corpus(1, 4)] + all_three_element_systems((0, 1, 2))
    import networkx as nx

    for g in nx.graph_atlas_g()[1:]:
        if 1 <= g.number_of_nodes() <= 4 and nx.is_connected(g):
            edges = sorted(tuple(sorted(e)) for e in g.edges())
            nv = g.number_of_nodes()
            systems.append(
                ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(nv)], nv, edges)
            )
    checked = 0
    for sys in systems:
        if sys.n > 4:
            continue
        for k in range(sys.max_value + 1):
            family = [m for m in range(1, 1 << sys.n) if sys.f(m) <= k]
            if not family:
                continue
            antichain = find_max_antichain(sys, k)
            cover = min_chain_cover(sys, family, k)
            assert len(antichain.sets) == len(cover)
            brute = brute_force_min_cover_size(sys, family, k)
            assert brute == len(cover)
            checked += 1
    report(
        f"PASS criterion 8: Dilworth equality (matching == brute force == antichain) "
        f"on {checked} (system, k) pairs"
    )


def test_criterion_09_subbase_generation():
    rng = random.Random(90909)
    pool = [s for s in corpus(3, 4)] + all_three_element_systems((0, 1, 2))
    pool = [s for s in pool if s.n <= 4]
    done = 0
    while done < 100:
        sys = rng.choice(pool)
        k = rng.randint(0, sys.max_value)
        keff = [m for m in range(1, 1 << sys.n) if sys.f(m) <= k]
        if not keff:
            continue
        members = rng.sample(keff, k=rng.randint(1, min(4, len(keff))))
        subbase = SetFamily.of(members, k, sys.n)
        status, payload = oracle_generate_from_subbase(sys.array.tolist(), sys.n, members, k)
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

    uf_checked = 0
    for sys in all_three_element_systems((0, 1)) + [pool[0]]:
        if sys.n > 4:
            continue
        for k in range(min(sys.max_value, 2) + 1):
            for uf in enumerate_families(sys, EnumerationRequest("ultrafilter", k)):
                assert check_family(sys, uf, "ultrafilter_subbase").holds
                got = generate_from_subbase(sys, uf)
                assert check_family(sys, got, "ultrafilter").holds
                uf_checked += 1
    report(
        f"PASS criterion 9: 100 seeded subbases match the fixpoint oracle; "
        f"{uf_checked} ultrafilter subbases generate verified ultrafilters"
    )


def test_criterion_10_theorem_audit_regression(tmp_path, capsys):
    instance = {
        "ground_set": ["x", "y"],
        "function": {"type": "table", "values": {"": 0, "x": 0, "y": 0, "x,y": 0}},
    }
    path = tmp_path / "two-elem-trivial.json"
    path.write_text(json.dumps(instance))
    code1 = main(["audit", str(path), "--theorems", "all", "-k", "0"])
    out1 = capsys.readouterr().out
    code2 = main(["audit", str(path), "--theorems", "all", "-k", "0"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 1
    assert out1 == out2, "audit reports must be byte-identical across runs"
    theorems = {t["theorem"]: t for t in json.loads(out1)["result"]["audits"][0]["theorems"]}
    assert theorems["TSC-no-nonprincipal-ultrafilter"]["status"] == "verified_at_scale"
    finding = theorems["TSC-no-antichain"]
    assert finding["status"] == "counterexample_found"
    assert finding["witness"][1] == ["x", "y"]
    report("PASS criterion 10: fixed audit findings reproduced, byte-identical across runs")


def test_criterion_11_width_anchors(c4_edge, k4_edge):
    r_c4 = branch_width(c4_edge)
    assert r_c4.width == 2
    assert decomposition_width(c4_edge, r_c4.certificate) == 2
    r_k4 = branch_width(k4_edge)
    assert r_k4.width == 3
    assert decomposition_width(k4_edge, r_k4.certificate) == 3
    report("PASS criterion 11: branch-width anchors C4 = 2, K4 = 3 with re-verified certificates")
