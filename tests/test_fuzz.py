"""The exit-code contract under fuzzed input files.

validate, family check (every kind) and width --eval-certificate read an
instance, a family and a certificate file. Each file is well-formed over a
ground set of at most six labels, or such a file with one part, at any
depth, replaced by an arbitrary JSON value. Whatever the files hold, the
command exits 0, 1 or 2, an exit 2 writes exactly one line to stderr, and
nothing else writes to stderr.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connsys.cli import main
from connsys.families import KINDS

LABELS = ["a", "b", "c", "d", "e", "f"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def key_of(mask):
    return ",".join(lab for i, lab in enumerate(LABELS) if mask >> i & 1)


def _replace_somewhere(draw, value):
    """A copy of value with one part, mostly a nested one, replaced by an arbitrary JSON value."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = _replace_somewhere(draw, value[key])
        return copy
    return draw(json_values)


@st.composite
def corrupted(draw, strategy):
    """A value of strategy, one time in three with one part replaced."""
    value = draw(strategy)
    return _replace_somewhere(draw, value) if draw(st.integers(0, 2)) == 0 else value


@st.composite
def instances(draw, n):
    kind = draw(st.sampled_from(["table", "graph_edge_cut", "graph_vertex_cut"]))
    if kind == "graph_vertex_cut":
        pairs = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        function = {"type": kind, "vertices": n, "edges": [list(e) for e in edges]}
    elif kind == "graph_edge_cut":
        touched = draw(st.integers(next(v for v in range(2, 6) if v * (v - 1) // 2 >= n), 5))
        pairs = list(combinations(range(touched), 2))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=n, unique=True))
        # isolated vertices change no value, however many there are
        function = {"type": kind, "vertices": draw(st.integers(min_value=touched)), "edges": [list(e) for e in edges]}
    else:
        # a hypergraph cut: the weight of the hyperedges that meet both sides, symmetric and submodular
        hyperedges = draw(st.lists(st.tuples(st.integers(1, (1 << n) - 1), st.integers(1, 2)), max_size=4))
        full = (1 << n) - 1
        values = {
            key_of(m): sum(w for e, w in hyperedges if e & m and e & ~m & full)
            for m in range(1 << n)
            if m <= full ^ m or draw(st.booleans())  # a missing value comes from its complement
        }
        if draw(st.booleans()):
            values[draw(st.sampled_from(sorted(values)))] += 1  # often no longer symmetric or submodular
        function = {"type": kind, "values": values}
    return {"ground_set": LABELS[:n], "function": function}


def families(n):
    masks = st.integers(0, (1 << n) - 1)
    full = (1 << n) - 1
    sets = st.one_of(
        st.lists(masks, max_size=40),
        masks.map(lambda s: [m for m in range(1 << n) if m & s == s]),  # every superset of s
        st.just([m for m in range(1 << n) if 2 * bin(m).count("1") >= n]),
        st.just([m for m in range(1 << n) if m != full]),
    )
    entry = st.sampled_from([key_of, lambda m: key_of(m).split(",") if m else []])
    return st.fixed_dictionaries(
        {"k": st.integers(0, 4), "sets": st.tuples(sets, entry).map(lambda p: [p[1](m) for m in p[0]])}
    )


@st.composite
def certificates(draw, n):
    if draw(st.booleans()):
        return {"type": "linear", "order": draw(st.permutations(LABELS[:n]))}
    # a cubic tree on n leaves: pairs of roots merge under new nodes until three are left for the last
    parents = [None] * max(1, 2 * n - 2)
    roots, node = list(range(n)), n
    while len(roots) > 3:
        a, b = draw(st.permutations(roots))[:2]
        roots = [r for r in roots if r not in (a, b)] + [node]
        parents[a] = parents[b] = node
        node += 1
    if n >= 3:
        for r in roots:
            parents[r] = node
    elif n == 2:
        parents[0] = 1
    leaves = dict(zip(map(str, range(n)), draw(st.permutations(LABELS[:n]))))
    return {"type": "branch", "parents": parents, "leaves": leaves}


def run_command(argv, files, folder):
    """Write each file into folder, put its path in place of its name in argv and run the command."""
    paths = {}
    for name, payload in files.items():
        paths[name] = os.path.join(folder, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(payload, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_input_exits_0_1_or_2_with_one_line_per_error(data):
    n = data.draw(st.integers(1, 6))
    files = {"inst": data.draw(corrupted(instances(n)))}
    verb = data.draw(st.sampled_from(["validate", "family", "width"]))
    if verb == "validate":
        argv = ["validate", "inst"]
    elif verb == "family":
        files["fam"] = data.draw(corrupted(families(n)))
        kind, k = data.draw(st.sampled_from(KINDS)), data.draw(st.integers(-1, 4))
        argv = ["family", "check", "inst", "--kind", kind, "-k", str(k), "--family", "fam"]
    else:
        files["cert"] = data.draw(corrupted(certificates(n)))
        argv = ["width", data.draw(st.sampled_from(["branch", "linear"])), "inst", "--eval-certificate", "cert"]
    with tempfile.TemporaryDirectory() as folder:
        code, out, err = run_command(argv, files, folder)
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "" and json.loads(out)["result"] is not None
