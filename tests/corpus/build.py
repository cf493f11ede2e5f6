"""The byte-identity corpus: seeded instances, the invocations run on them, and their digests.

`write_instances(root)` writes seeded vertex cuts, edge cuts and tables to
`root/instances` and returns the invocations, each a list of arguments with
paths relative to `root`: at n = 1..8 `validate`, both widths with and
without `--certificate`, `--eval-certificate` of each emitted certificate,
and `audit --theorems chains|duality --k-range 0..max f`; at n = 9..12 the
same without the audits. Last come `validate` runs on tables that fail:
at each n = 3..12 one that breaks submodularity on the local pairs of one
pair of bits and, from n = 6 on, one that breaks it on those of two (at
n = 2 every symmetric table with f(X) = 0 is submodular), and one table
that breaks symmetry. `replay(root, invocations)` runs each one through
the in-process `connsys.cli.main` from `root` and pairs it with the SHA-256
of its exit code, stdout and stderr. An invocation with `--certificate` that
exits 0 leaves its certificate in `root/certificates/<instance>-<mode>.json`,
where the `--eval-certificate` invocation after it reads it.

Run from the repository root to record the digests of the program as it
stands in `digests.json` beside this file:

    PYTHONPATH=src python -m tests.corpus.build

A change that alters output on purpose records them again and names the
changed invocations in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from connsys.cli import main

from ..oracles import oracle_cut_values, planted_table

DIGESTS = Path(__file__).with_name("digests.json")
# (n, whether the audits run, instances of each kind): the audits stop at n = 8, where enumeration stops
SIZES = [(n, True, 10) for n in range(1, 9)] + [(n, False, 2) for n in range(9, 13)]


def _vertex_cut(rng, n):
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = sorted(rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))
    function = {"type": "graph_vertex_cut", "vertices": n, "edges": edges}
    return [f"v{i}" for i in range(n)], function, oracle_cut_values("vertex", n, n, edges)


def _edge_cut(rng, n):
    vertices = next(v for v in range(2, n + 3) if v * (v - 1) // 2 >= n)
    vertices = rng.randint(vertices, vertices + 2)
    pairs = [[u, v] for u in range(vertices) for v in range(u + 1, vertices)]
    edges = sorted(rng.sample(pairs, n))
    function = {"type": "graph_edge_cut", "vertices": vertices, "edges": edges}
    return [f"e{i}" for i in range(n)], function, oracle_cut_values("edge", n, vertices, edges)


def _table(rng, n):
    """A weighted hypergraph cut plus min(|A|, n - |A|, cap): symmetric and submodular."""
    count = rng.randint(0, n) if n > 1 else 0
    hyperedges = [(rng.sample(range(n), rng.randint(2, n)), rng.randint(1, 2)) for _ in range(count)]
    cap = rng.randint(0, n // 2)
    values = []
    for mask in range(1 << n):
        size = bin(mask).count("1")
        inside = [sum(mask >> e & 1 for e in members) for members, _ in hyperedges]
        crossing = sum(w for (members, w), i in zip(hyperedges, inside) if 0 < i < len(members))
        values.append(min(size, n - size, cap) + crossing)
    return _table_instance("t", n, values)


def _planted(rng, n, count):
    """A table that breaks submodularity on the local pairs of count pairs of bits, drawn by rng."""
    chosen = rng.sample(range(n), 2 * count)
    pairs = sorted(tuple(sorted(chosen[2 * p : 2 * p + 2])) for p in range(count))
    values = planted_table(n, pairs, rng.getrandbits(32)).tolist()
    return _table_instance("p", n, values)


def _asymmetric(rng, n):
    """A valid table with one value raised on one side of a complement pair only."""
    values = _table(rng, n)[2]
    values[rng.randrange(1, (1 << n) - 1)] += 1
    return _table_instance("t", n, values)


def _table_instance(prefix, n, values):
    labels = [f"{prefix}{i}" for i in range(n)]
    keys = [",".join(lab for i, lab in enumerate(labels) if mask >> i & 1) for mask in range(1 << n)]
    return labels, {"type": "table", "values": dict(zip(keys, values))}, values


def _failing():
    """(name, instance) of each table that validate rejects."""
    for n in range(3, 13):
        for count in (1, 2) if n >= 6 else (1,):
            name = f"pl-{n}-{count}"
            yield name, _planted(random.Random(name), n, count)
    yield "as-7-0", _asymmetric(random.Random("as-7-0"), 7)


def _write(root, name, labels, function):
    path = f"instances/{name}.json"
    (Path(root) / path).write_text(json.dumps({"ground_set": labels, "function": function}))
    return path


def write_instances(root):
    """Write the seeded instance files under root/instances; return the invocations, in replay order."""
    (Path(root) / "instances").mkdir(parents=True, exist_ok=True)
    invocations = []
    for n, audited, count in SIZES:
        for prefix, make in (("vc", _vertex_cut), ("ec", _edge_cut), ("tb", _table)):
            for seed in range(count):
                name = f"{prefix}-{n}-{seed}"
                labels, function, values = make(random.Random(name), n)
                path = _write(root, name, labels, function)
                invocations.append(["validate", path])
                for mode in ("branch", "linear"):
                    invocations.append(["width", mode, path])
                    invocations.append(["width", mode, path, "--certificate"])
                    invocations.append(["width", mode, path, "--eval-certificate", f"certificates/{name}-{mode}.json"])
                if audited:
                    for selection in ("chains", "duality"):
                        invocations.append(["audit", path, "--theorems", selection, "--k-range", f"0..{max(values)}"])
    for name, (labels, function, _) in _failing():
        invocations.append(["validate", _write(root, name, labels, function)])
    return invocations


def digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def replay(root, invocations):
    """(invocation, digest) for each invocation, run in-process from root; certificates are written as they come."""
    (Path(root) / "certificates").mkdir(exist_ok=True)
    digests, cwd = [], os.getcwd()
    os.chdir(root)
    try:
        for argv in invocations:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if "--certificate" in argv and code == 0:
                certificate = json.loads(out.getvalue())["result"]["certificate"]
                Path(f"certificates/{Path(argv[2]).stem}-{argv[1]}.json").write_text(json.dumps(certificate))
            digests.append((argv, digest(code, out.getvalue(), err.getvalue())))
    finally:
        os.chdir(cwd)
    return digests


def key(argv):
    return " ".join(argv)


def record():
    os.environ.pop("CONNSYS_MAX_N", None)
    with tempfile.TemporaryDirectory() as root:
        digests = {key(argv): d for argv, d in replay(root, write_instances(root))}
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")


if __name__ == "__main__":
    record()
