import errno
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import connsys
from connsys.cli import main
from connsys.serialization import load_instance

C4_EDGES = {
    "ground_set": ["e1", "e2", "e3", "e4"],
    "function": {"type": "graph_edge_cut", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
}
TRIVIAL2 = {
    "ground_set": ["x", "y"],
    "function": {"type": "table", "values": {"": 0, "x": 0, "y": 0, "x,y": 0}},
}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_width_branch_with_certificate(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "width", "branch", inst, "--certificate")
    assert code == 0
    assert report["result"]["width"] == 2
    assert report["result"]["certificate"]["type"] == "branch"


def test_width_certificate_reverifies(files, capsys, tmp_path):
    inst = files("c4.json", C4_EDGES)
    for mode in ("branch", "linear"):
        code, report, _ = run(capsys, "width", mode, inst, "--certificate")
        cert = tmp_path / f"cert-{mode}.json"
        cert.write_text(json.dumps(report["result"]["certificate"]))
        code2, report2, _ = run(capsys, "width", mode, inst, "--eval-certificate", str(cert))
        assert code2 == 0
        assert report2["result"]["width"] == report["result"]["width"]


def seeded_vertex_cut(n, m, seed):
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = sorted(random.Random(seed).sample(pairs, m))
    function = {"type": "graph_vertex_cut", "vertices": n, "edges": edges}
    return {"ground_set": [f"v{i}" for i in range(n)], "function": function}


@pytest.mark.parametrize(
    "instance, width, parents",
    [
        ({"ground_set": ["x"], "function": {"type": "table", "values": {"": 0, "x": 0}}}, 0, [None]),
        (TRIVIAL2, 0, [1, None]),
        (C4_EDGES, 2, [4, 5, 5, 4, 5, None]),
        (
            {
                "ground_set": ["e1", "e2", "e3", "e4", "e5", "e6"],
                "function": {
                    "type": "graph_edge_cut",
                    "vertices": 4,
                    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                },
            },
            3,
            [7, 8, 8, 9, 9, 6, 9, 6, 7, None],
        ),
        (seeded_vertex_cut(8, 12, 8008), 5, [8, 10, 12, 13, 13, 10, 11, 8, 9, 11, 9, 12, 13, None]),
    ],
    ids=["n1", "n2", "c4", "k4", "v8"],
)
def test_branch_certificate_parents_are_pinned(files, capsys, tmp_path, instance, width, parents):
    """The emitted tree hangs from its highest node; evaluating the emitted file gives the width back."""
    inst = files("inst.json", instance)
    code, report, _ = run(capsys, "width", "branch", inst, "--certificate")
    cert = report["result"]["certificate"]
    labels = instance["ground_set"]
    assert (code, report["result"]["width"]) == (0, width)
    assert cert == {"type": "branch", "parents": parents, "leaves": {str(i): lab for i, lab in enumerate(labels)}}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, report, _ = run(capsys, "width", "branch", inst, "--eval-certificate", str(path))
    assert (code, report["result"]) == (0, {"width": width, "evaluated": True})


@pytest.mark.parametrize("n", [17, 20])
def test_linear_width_runs_past_the_branch_width_gate(files, capsys, tmp_path, monkeypatch, n):
    """Linear width is bounded by the ground-set cap alone; branch width keeps its gate."""
    monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
    inst = files(f"v{n}.json", seeded_vertex_cut(n, 3 * n, n))
    code, report, err = run(capsys, "width", "linear", inst, "--certificate")
    assert (code, err) == (0, "")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report["result"]["certificate"]))
    code, evaluated, err = run(capsys, "width", "linear", inst, "--eval-certificate", str(path))
    assert (code, evaluated["result"], err) == (0, {"width": report["result"]["width"], "evaluated": True}, "")
    if n == 17:
        code, report, err = run(capsys, "width", "branch", inst)
        assert (code, report) == (2, None)
        assert err == "GroundSetTooLargeForExhaustiveSearch: branch-width search is gated to n <= 16\n"


def test_family_check_holds(files, capsys):
    inst = files("c4.json", C4_EDGES)
    fam = files("fX.json", {"k": 1, "sets": [["e1", "e2", "e3", "e4"]]})
    code, report, _ = run(
        capsys, "family", "check", inst, "--kind", "ultrafilter", "-k", "1", "--family", fam
    )
    assert code == 0
    assert report["result"]["holds"] is True


def test_family_check_single_modes(files, capsys):
    # f(c) = 2 > k, so QS1 never deletes c, while QSD1 finds {a,c} - c = {a} efficient and missing
    values = {"": 0, "a": 1, "b": 1, "c": 2, "a,b": 2, "a,c": 1, "b,c": 1, "a,b,c": 0}
    inst = files("t3.json", {"ground_set": ["a", "b", "c"], "function": {"type": "table", "values": values}})
    fam = files("f.json", {"k": 1, "sets": ["a,c", "b,c", "a,b,c"]})
    argv = ["family", "check", inst, "--kind", "single_filter", "-k", "1", "--family", fam]
    code, report, _ = run(capsys, *argv)
    assert code == 0
    assert report["result"]["derived"] == {"QS1": True, "QSD1": False}
    code, report, _ = run(capsys, *argv, "--single-mode", "QSD1")
    assert code == 1
    result = report["result"]
    assert (result["violated_axiom"], result["witnesses"]) == ("QSD1", ["a,c", "c"])
    assert result["derived"] == {"QS1": True, "QSD1": False}


def test_family_check_violation_exit1(files, capsys):
    inst = files("c4.json", C4_EDGES)
    fam = files("f0.json", {"k": 1, "sets": [[], ["e1", "e2", "e3", "e4"]]})
    code, report, _ = run(
        capsys, "family", "check", inst, "--kind", "filter", "-k", "1", "--family", fam
    )
    assert code == 1
    assert report["result"]["violated_axiom"] == "Q3"
    assert report["result"]["witnesses"] == [""]


@pytest.mark.parametrize(
    "labels, values, violation, message",
    [
        (
            ["a", "b"],
            {"": 0, "a": 1, "b": 2, "a,b": 0},
            "SymmetryViolation",
            "f is not symmetric at subset mask 0x1: f('a') = 1 but f('b') = 2",
        ),
        (
            ["a", "b", "c"],
            {"": 0, "a": 2, "b": 2, "c": 5, "a,b": 5, "a,c": 2, "b,c": 2, "a,b,c": 0},
            "SubmodularityViolation",
            "f is not submodular on pair (0x1, 0x2): f('a') + f('b') = 4 < 5",
        ),
    ],
)
def test_validate_invalid_function_reports_exit1(files, capsys, labels, values, violation, message):
    inst = files("bad.json", {"ground_set": labels, "function": {"type": "table", "values": values}})
    code, report, err = run(capsys, "validate", inst)
    assert (code, err) == (1, "")
    assert report["result"] == {"valid": False, "violation": violation, "witnesses": ["a", "b"], "message": message}
    # every other command still rejects the instance as input
    code, report, err = run(capsys, "width", "linear", inst)
    assert (code, report, err) == (2, None, f"{violation}: {message}\n")


def test_validate_conflicting_keys_exit2(files, capsys):
    values = {"": 0, "a": 1, "b": 1, "c": 1, "a,b": 1, "b,a": 5}
    inst = files("dup.json", {"ground_set": ["a", "b", "c"], "function": {"type": "table", "values": values}})
    code, report, err = run(capsys, "validate", inst)
    assert (code, report, err) == (2, None, "TableIncomplete: conflicting values for subset 'a,b'\n")
    values["b,a"] = 1  # equal duplicates are accepted
    inst = files("dup.json", {"ground_set": ["a", "b", "c"], "function": {"type": "table", "values": values}})
    assert run(capsys, "validate", inst)[0] == 0


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("a", 1.5, "InputError: value 1.5 for subset 'a' is not an integer"),
        ("a", True, "InputError: value True for subset 'a' is not an integer"),
        ("a", "2", "InputError: value '2' for subset 'a' is not an integer"),
        ("a", -1, "NormalizationViolation: negative value -1 for subset 'a'"),
        ("a", 2**62, f"InputError: value {2**62} for subset 'a' exceeds {2**62 - 1}"),
        ("a,z", 1, "InputError: unknown element label 'z'"),
        ("zz", 1, "InputError: unknown element label 'zz'"),
        ("a", float("nan"), "InputError: value nan for subset 'a' is not an integer"),
        ("a", float("inf"), "InputError: value inf for subset 'a' is not an integer"),
    ],
)
def test_table_entry_rejected_exit2(files, capsys, key, value, message):
    values = {"": 0, key: value, "a,b": 0}
    inst = files("t.json", {"ground_set": ["a", "b"], "function": {"type": "table", "values": values}})
    code, report, err = run(capsys, "validate", inst)
    assert (code, report, err) == (2, None, message + "\n")


def test_python_m_connsys_help():
    src = os.path.dirname(os.path.dirname(connsys.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "connsys", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: connsys")


def test_validate_good(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "validate", inst)
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["result"]["validation"]["mode"] == "exhaustive"


def test_enumerate(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "enumerate", "ultrafilters", inst, "-k", "2", "--non-principal")
    assert code == 0
    assert report["result"]["count"] == 0
    code, report, _ = run(capsys, "enumerate", "ultrafilters", inst, "-k", "2")
    assert report["result"]["count"] == 4
    code, report, _ = run(capsys, "enumerate", "tangles", inst, "-k", "1")
    assert report["result"]["families"] == [{"k": 1, "sets": [""]}]


def test_construct_and_extend(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "construct", "ultrafilter", inst, "-k", "2")
    assert code == 0
    assert report["result"]["family"]["sets"][0] == "e1"
    assert report["result"]["operations"] <= 64 * 4**4
    fam = files("fX2.json", {"k": 2, "sets": [["e1", "e2", "e3", "e4"]]})
    code, report, _ = run(capsys, "extend", inst, "--family", fam)
    assert code == 0
    sets = report["result"]["family"]["sets"]
    assert all("e4" in s.split(",") for s in sets)


def test_generate_and_empty_intersection(files, capsys):
    inst = files("t2.json", TRIVIAL2)
    sub = files("sub.json", {"k": 0, "sets": [["x"], ["y"]]})
    code, report, _ = run(capsys, "generate", inst, "--subbase", sub, "-k", "0")
    assert code == 1
    assert report["result"]["error"] == "EmptyIntersection"
    sub2 = files("sub2.json", {"k": 0, "sets": [["x"]]})
    code, report, _ = run(capsys, "generate", inst, "--subbase", sub2, "-k", "0")
    assert code == 0
    assert report["result"]["family"]["sets"] == ["x", "x,y"]


def test_audit_fixed_finding_exit1(files, capsys):
    inst = files("t2.json", TRIVIAL2)
    code, report, _ = run(capsys, "audit", inst, "--theorems", "all", "-k", "0")
    assert code == 1
    theorems = {t["theorem"]: t for t in report["result"]["audits"][0]["theorems"]}
    assert theorems["TSC-no-antichain"]["status"] == "counterexample_found"
    assert theorems["TSC-no-antichain"]["witness"][1] == ["x", "y"]
    assert theorems["TSC-no-nonprincipal-ultrafilter"]["status"] == "verified_at_scale"


def test_audit_byte_identical(files, capsys):
    inst = files("t2.json", TRIVIAL2)
    main(["audit", inst, "--theorems", "all", "-k", "0"])
    first = capsys.readouterr().out
    main(["audit", inst, "--theorems", "all", "-k", "0"])
    second = capsys.readouterr().out
    assert first == second


def test_audit_k_range_and_duality(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "audit", inst, "--theorems", "duality", "--k-range", "0..2")
    assert code == 0
    audits = report["result"]["audits"]
    assert [a["k"] for a in audits] == [0, 1, 2]
    for entry in audits:
        assert all(v["consistent"] for v in entry["duality"])


def test_dilworth_command(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "dilworth", inst, "-k", "2")
    assert code == 0
    res = report["result"]
    assert res["equal"] is True
    assert res["max_antichain_size"] == res["min_cover_size"] == 4
    assert res["brute_force_cover_size"] == 4


def test_ultrafilter_number_command(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "ultrafilter-number", inst, "-k", "1")
    assert code == 0
    assert report["result"]["u"] == 1
    code, report, _ = run(capsys, "ultrafilter-number", inst, "-k", "2")
    assert report["result"]["u"] is None


def seeded_cut(kind, n, edge_count, seed):
    """A graph_vertex_cut instance on n vertices, or a graph_edge_cut one with n edges, from a seeded sample."""
    rng = random.Random(seed)
    vertices = n if kind == "vertex" else next(v for v in range(2, n + 2) if v * (v - 1) // 2 >= edge_count)
    edges = rng.sample(list(combinations(range(vertices), 2)), edge_count)
    prefix = "v" if kind == "vertex" else "e"
    return {
        "ground_set": [f"{prefix}{i}" for i in range(n)],
        "function": {"type": f"graph_{kind}_cut", "vertices": vertices, "edges": [list(e) for e in sorted(edges)]},
    }


def test_ultrafilter_number_runs_at_the_ground_set_cap(files, capsys, monkeypatch):
    monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
    inst = files("v20.json", seeded_cut("vertex", 20, 60, 20))
    max_f = load_instance(inst).max_value
    for k, u in ((0, 1), (max_f, None)):  # X is the one class at k = 0; every singleton is efficient at max f
        code, report, err = run(capsys, "ultrafilter-number", inst, "-k", str(k))
        assert (code, err, report["result"]["u"]) == (0, "", u)


@pytest.mark.parametrize("n, axiom", [(9, "MA1"), (16, "MA3")])
def test_family_check_majority_system_above_n8(files, capsys, monkeypatch, n, axiom):
    """majority_system has no size gate: every set of at least n/2 elements holds at k = max f."""
    monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
    spec = seeded_cut("vertex", n, 2 * n, n)
    inst = files(f"v{n}.json", spec)
    k = str(load_instance(inst).max_value)
    labels = spec["ground_set"]
    half = [[labels[i] for i in range(n) if m >> i & 1] for m in range(1 << n) if 2 * bin(m).count("1") >= n]
    # without its first set, the complement of that set is an efficient non-member: at odd n it is
    # smaller and MA1 fails; at even n it is a member of the same size and MA3 fails
    for sets, code, violated in ((half, 0, None), (half[1:], 1, axiom)):
        fam = files("half.json", {"k": int(k), "sets": sets})
        got, report, err = run(capsys, "family", "check", inst, "--kind", "majority_system", "-k", k, "--family", fam)
        assert (got, err, report["result"]["violated_axiom"]) == (code, "", violated)


def test_validate_edge_cut_ignores_isolated_vertices(files, capsys):
    """Isolated vertices change no value, so a huge 'vertices' costs nothing."""
    results = []
    for vertices in (3, 10**9):
        function = {"type": "graph_edge_cut", "vertices": vertices, "edges": [[0, 1], [1, 2]]}
        inst = files(f"path{vertices}.json", {"ground_set": ["e0", "e1"], "function": function})
        started = time.perf_counter()
        code, report, err = run(capsys, "validate", inst)
        assert time.perf_counter() - started < 1
        results.append((code, err, report["result"], load_instance(inst).array.tolist()))
    assert results[0] == results[1]


def test_unknown_label_exit2(files, capsys):
    inst = files("c4.json", C4_EDGES)
    fam = files("bad-fam.json", {"k": 1, "sets": [["zz"]]})
    code, report, err = run(capsys, "family", "check", inst, "--kind", "filter", "-k", "1", "--family", fam)
    assert (code, report, err) == (2, None, "InputError: unknown element label 'zz'\n")


def test_missing_file_exit2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.json")
    assert code == 2


@pytest.mark.parametrize("graph", ["graph_edge_cut", "graph_vertex_cut"])
@pytest.mark.parametrize("missing", ["vertices", "edges"])
def test_missing_graph_key_exit2(files, capsys, graph, missing):
    function = {"type": graph, "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    del function[missing]
    inst = files("g.json", {"ground_set": ["a", "b", "c", "d"], "function": function})
    code, report, err = run(capsys, "validate", inst)
    assert code == 2
    assert report is None
    assert err.startswith("InputError: ") and repr(missing) in err
    assert err.count("\n") == 1


def test_report_shape_and_determinism(files, capsys):
    inst = files("c4.json", C4_EDGES)
    main(["width", "branch", inst, "--certificate"])
    first = capsys.readouterr().out
    main(["width", "branch", inst, "--certificate"])
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert list(report) == ["command", "result", "timing_ms", "version"]
    assert report["timing_ms"] is None


def test_timing_flag(files, capsys):
    inst = files("c4.json", C4_EDGES)
    code, report, _ = run(capsys, "--timing", "validate", inst)
    assert code == 0
    assert isinstance(report["timing_ms"], float)


@pytest.mark.parametrize(
    "instance, message",
    [
        (
            {"ground_set": ["a", "a"], "function": {"type": "table", "values": {"": 0}}},
            "InputError: element labels must be unique",
        ),
        (
            {"ground_set": ["a", "b"], "function": {"type": "table", "values": [["", 0]]}},
            "InputError: table function needs a 'values' object",
        ),
        (
            {"ground_set": "ab", "function": {"type": "table", "values": {"": 0, "a": 0}}},
            "InputError: 'ground_set' must be a list of strings",
        ),
    ],
)
def test_malformed_instance_exit2(files, capsys, instance, message):
    inst = files("m.json", instance)
    code, report, err = run(capsys, "validate", inst)
    assert (code, report, err) == (2, None, message + "\n")


@pytest.mark.parametrize("flag", ["--seed", "--parallel"])
def test_removed_flags_are_unknown(files, capsys, flag):
    inst = files("c4.json", C4_EDGES)
    with pytest.raises(SystemExit) as exc:
        main([flag, "2", "width", "linear", inst])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_audit_all_runs_at_n5(files, capsys):
    path_p5 = {
        "ground_set": ["a", "b", "c", "d", "e"],
        "function": {"type": "graph_vertex_cut", "vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    }
    inst = files("p5.json", path_p5)
    system = load_instance(inst)
    code, report, err = run(capsys, "audit", inst, "--theorems", "all", "--k-range", "0..1")
    assert code in (0, 1) and err == ""
    for entry in report["result"]["audits"]:
        k = entry["k"]
        t36 = next(t for t in entry["theorems"] if t["theorem"] == "T3.6-exactly-one")
        ufs = connsys.enumerate_families(system, connsys.EnumerationRequest("ultrafilter", k))
        assert t36["status"] == ("counterexample_found" if ufs else "verified_at_scale")
        if ufs:
            chain, members = t36["witness"]
            fam = connsys.SetFamily.of([system.ground.mask_from_key(key) for key in members], k, system.n)
            assert connsys.check_family(system, fam, "ultrafilter").holds
            assert sum(key in members for key in chain) != 1


@pytest.mark.parametrize("graph", ["graph_edge_cut", "graph_vertex_cut"])
@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (2, [[0]], "InputError: edge 0 in 'edges' must be a pair of integers, not [0]"),
        (2, [[0, 1, 1]], "InputError: edge 0 in 'edges' must be a pair of integers, not [0, 1, 1]"),
        (2, [[0, True]], "InputError: edge 0 in 'edges' must be a pair of integers, not [0, True]"),
        (2, [[0, "1"]], "InputError: edge 0 in 'edges' must be a pair of integers, not [0, '1']"),
        (2, {"0": 1}, "InputError: 'edges' must be a list of vertex pairs"),
        ("2", [[0, 1]], "InputError: 'vertices' must be an integer >= 1, not '2'"),
        (True, [], "InputError: 'vertices' must be an integer >= 1, not True"),
        (0, [], "InputError: 'vertices' must be an integer >= 1, not 0"),
        (2.0, [[0, 1]], "InputError: 'vertices' must be an integer >= 1, not 2.0"),
    ],
)
def test_malformed_graph_exit2(files, capsys, graph, vertices, edges, message):
    function = {"type": graph, "vertices": vertices, "edges": edges}
    inst = files("g.json", {"ground_set": ["a", "b"], "function": function})
    code, report, err = run(capsys, "validate", inst)
    assert (code, report, err) == (2, None, message + "\n")


@pytest.mark.parametrize(
    "family, message",
    [
        ({"k": "x", "sets": [["e1"]]}, "InputError: family 'k' must be an integer >= 0, not 'x'"),
        ({"k": True, "sets": [["e1"]]}, "InputError: family 'k' must be an integer >= 0, not True"),
        ({"k": -1, "sets": [["e1"]]}, "InputError: family 'k' must be an integer >= 0, not -1"),
        ({"k": 2.0, "sets": [["e1"]]}, "InputError: family 'k' must be an integer >= 0, not 2.0"),
        ({"k": 2, "sets": "e1"}, "InputError: family 'sets' must be a list of subsets"),
        ({"k": 2, "sets": ["e1", 1]}, "InputError: set 1 in 'sets' must be a string or a list of strings, not 1"),
        ({"k": 2, "sets": [["e1", 2]]}, "InputError: set 0 in 'sets' must be a string or a list of strings, not ['e1', 2]"),
        ({"k": 2, "sets": [{"e1": 1}]}, "InputError: set 0 in 'sets' must be a string or a list of strings, not {'e1': 1}"),
    ],
)
def test_malformed_family_exit2(files, capsys, family, message):
    inst = files("c4.json", C4_EDGES)
    fam = files("fam.json", family)
    code, report, err = run(capsys, "extend", inst, "--family", fam)
    assert (code, report, err) == (2, None, message + "\n")


def test_negative_k_exit2(files, capsys):
    inst = files("c4.json", C4_EDGES)
    fam = files("f.json", {"k": 1, "sets": [["e1", "e2", "e3", "e4"]]})
    for argv in (["family", "check", "--kind", "filter", "-k", "-1", "--family", fam], ["dilworth", "-k", "-1"]):
        code, report, err = run(capsys, *argv, inst)
        assert (code, report, err) == (2, None, "InvalidParameter: the efficiency bound must be non-negative\n")


@pytest.mark.parametrize(
    "mode, cert, message",
    [
        ("linear", {"type": "linear", "order": "e1"}, "'order' must be a list of element labels, not 'e1'"),
        ("branch", {"type": "branch", "parents": 5}, "'parents' must be a list of node indices or nulls, not 5"),
        ("linear", {"type": "linear", "order": ["e1", "zz", "e3", "e4"]}, "entry 1 in 'order': unknown element label 'zz'"),
        ("linear", ["e1", "e2", "e3", "e4"], "certificate JSON must be an object"),
        (
            "branch",
            {"type": "branch", "parents": [4, 4, 5, 5, None, 4], "leaves": {"0": 5}},
            "leaf '0' in 'leaves' must be an element label, not 5",
        ),
        (
            "branch",
            {"type": "branch", "parents": [4, "4", 5, 5, None, 4], "leaves": {}},
            "entry 1 in 'parents' must be a node index or null, not '4'",
        ),
        ("branch", {"type": "linear", "order": ["e1", "e2", "e3", "e4"]}, "certificate 'type' must be 'branch', not 'linear'"),
    ],
)
def test_malformed_certificate_exit2(files, capsys, mode, cert, message):
    inst = files("c4.json", C4_EDGES)
    path = files("cert.json", cert)
    code, report, err = run(capsys, "width", mode, inst, "--eval-certificate", path)
    assert (code, report, err) == (2, None, f"InputError: {message}\n")


def path_vertex_cut(n):
    return {
        "ground_set": [chr(ord("a") + i) for i in range(n)],
        "function": {"type": "graph_vertex_cut", "vertices": n, "edges": [[i, i + 1] for i in range(n - 1)]},
    }


CO_TANGLE_GATE = "GroundSetTooLargeForEnumeration: filter brute force is gated to at most 16 efficient sets"


@pytest.mark.parametrize(
    "n, theorems, k_range, gated",
    [
        (6, "all", "0..2", {2: CO_TANGLE_GATE}),
        (6, "families", "0..2", {2: CO_TANGLE_GATE}),
        (5, "all", "0..4", {2: CO_TANGLE_GATE, 3: CO_TANGLE_GATE, 4: CO_TANGLE_GATE}),
    ],
)
def test_audit_k_range_reports_past_a_gated_k(files, capsys, n, theorems, k_range, gated):
    inst = files(f"p{n}.json", path_vertex_cut(n))
    code, report, err = run(capsys, "audit", inst, "--theorems", theorems, "--k-range", k_range)
    assert code == 2
    lo, hi = map(int, k_range.split(".."))
    audits = report["result"]["audits"]
    assert [entry["k"] for entry in audits] == list(range(lo, hi + 1))
    assert err == "".join(f"k={k}: {message}\n" for k, message in gated.items())
    for entry in audits:
        k = entry["k"]
        if k in gated:
            assert entry == {"k": k, "gated": gated[k]}
            continue
        # every k the gate spares is reported exactly as a run at that k alone reports it
        code_k, report_k, err_k = run(capsys, "audit", inst, "--theorems", theorems, "-k", str(k))
        assert code_k in (0, 1) and err_k == ""
        assert report_k["result"]["audits"] == [entry]


def test_audit_runs_each_width_search_once(files, capsys, monkeypatch):
    from connsys import decomposition

    calls = {"_branch_width_dp": 0, "_least_chain_width": 0}
    for name in calls:
        search = getattr(decomposition, name)

        def counted(sys, name=name, search=search):
            calls[name] += 1
            return search(sys)

        monkeypatch.setattr(decomposition, name, counted)
    inst = files("c4.json", C4_EDGES)
    max_f = load_instance(inst).max_value
    code, report, err = run(capsys, "audit", inst, "--theorems", "all", "--k-range", f"0..{max_f}")
    assert code in (0, 1) and err == ""
    assert len(report["result"]["audits"]) == max_f + 1
    assert all("gated" not in entry for entry in report["result"]["audits"])
    assert calls == {"_branch_width_dp": 1, "_least_chain_width": 1}


def test_audit_enumerates_the_ultrafilters_once_per_k(files, capsys, monkeypatch):
    from connsys import orders

    requests = []
    enumerate_families = orders.enumerate_families

    def counted(sys, req):
        requests.append(req)
        return enumerate_families(sys, req)

    monkeypatch.setattr(orders, "enumerate_families", counted)
    inst = files("c4.json", C4_EDGES)
    code, report, err = run(capsys, "audit", inst, "--theorems", "all", "-k", "1")
    assert code in (0, 1) and err == ""
    details = {t["theorem"]: t["detail"] for t in report["result"]["audits"][0]["theorems"]}
    # T3.5, T3.6 and T2.32 all read the list, which holds a non-principal ultrafilter here
    assert details["T2.32-equivalence-list"] == "1 non-principal ultrafilters x 7 kinds"
    assert [(r.kind, r.k, r.non_principal_only, r.limit) for r in requests] == [("ultrafilter", 1, False, None)]


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_chain_audits_and_dilworth_run_at_the_enumeration_gate(files, capsys, kind, n):
    inst = files(f"{kind}{n}.json", seeded_cut(kind, n, 2 * n if kind == "vertex" else n, n))
    max_f = load_instance(inst).max_value
    code, report, err = run(capsys, "audit", inst, "--theorems", "chains", "--k-range", f"0..{max_f}")
    assert code in (0, 1) and err == ""
    assert all("gated" not in entry for entry in report["result"]["audits"])
    code, report, err = run(capsys, "dilworth", inst, "-k", str(max_f))
    assert code in (0, 1) and err == ""
    assert report["result"]["family_size"] == 2**n - 1


def test_main_reuses_its_parser_across_calls(files, capsys):
    from connsys import cli

    assert cli._parser() is cli._parser()
    inst = files("c4.json", C4_EDGES)
    argv = ["audit", inst, "--theorems", "all", "--k-range", "0..2"]
    first = main(argv), capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["audit", inst, "--theorems", "all"])  # needs -k or --k-range
    assert exc.value.code == 2
    capsys.readouterr()
    second = main(argv), capsys.readouterr()
    assert first[0] == second[0] and first[1].out == second[1].out and first[1].out


@pytest.mark.parametrize("failure", ["verdict", "exception"])
def test_internal_error_exit3(files, capsys, monkeypatch, failure):
    """A failed self-check, or any unexpected exception, exits 3 with one stderr line and no report."""
    from types import SimpleNamespace

    from connsys import construction

    def broken_check(sys, fam, kind, **kw):
        if failure == "exception":
            raise ValueError("unexpected")
        return SimpleNamespace(holds=False, violated_axiom="T2")

    monkeypatch.setattr(construction, "check_family", broken_check)
    inst = files("c4.json", C4_EDGES)
    code, report, err = run(capsys, "enumerate", "tangles", inst, "-k", "1")
    assert (code, report) == (3, None)
    assert err.startswith("InternalError: ") and err.count("\n") == 1, err
    assert ("T2" if failure == "verdict" else "ValueError: unexpected") in err


# For each kind of input file: a file holding an integer past Python's 4,300-digit
# conversion limit, written by hand since json.dumps cannot write one, and the
# command line that reads the file at {path}.
INPUT_FILES = {
    "instance": (
        '{"ground_set": ["a"], "function": {"type": "graph_vertex_cut", "vertices": HUGE, "edges": []}}',
        ["validate", "{path}"],
    ),
    "family": ('{"k": HUGE, "sets": []}', ["extend", "{c4}", "--family", "{path}"]),
    "certificate": (
        '{"type": "branch", "parents": [HUGE]}',
        ["width", "branch", "{c4}", "--eval-certificate", "{path}"],
    ),
}
DIGIT_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


@pytest.mark.parametrize("what", list(INPUT_FILES))
@pytest.mark.parametrize("problem", ["missing", "directory", "invalid-utf8", "empty", "huge-integer", "deep-nesting"])
def test_unreadable_input_file_exit2(files, capsys, tmp_path, what, problem):
    """Every input file that cannot be read or parsed gives one InputError line, exit 2 and no report."""
    huge, argv = INPUT_FILES[what]
    path = tmp_path / "input.json"
    if problem == "directory":
        path.mkdir()
    elif problem != "missing":
        contents = {
            "invalid-utf8": b'{"k": 1, "sets": ["\xff"]}',
            "empty": b"",
            "huge-integer": huge.replace("HUGE", "9" * 5000).encode(),
            "deep-nesting": b"[" * 100_000,
        }
        path.write_bytes(contents[problem])
    message = {
        "missing": f"{what} file not found: {path}",
        "directory": f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(path)!r}",
        "invalid-utf8": "'utf-8' codec can't decode byte 0xff in position 19: invalid start byte",
        "empty": f"malformed JSON in {path}: Expecting value: line 1 column 1 (char 0)",
        "huge-integer": f"malformed JSON in {path}: {DIGIT_LIMIT}",
        "deep-nesting": f"malformed JSON in {path}: maximum recursion depth exceeded while decoding a JSON array "
        "from a unicode string",
    }[problem]
    c4 = files("c4.json", C4_EDGES)
    code, report, err = run(capsys, *(arg.format(path=path, c4=c4) for arg in argv))
    assert (code, report, err) == (2, None, f"InputError: {message}\n")


def test_unreadable_instance_exit2(tmp_path, capsys):
    code, report, err = run(capsys, "validate", str(tmp_path))
    assert (code, report) == (2, None)
    assert err.startswith("InputError: ") and err.count("\n") == 1
