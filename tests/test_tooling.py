"""Checks on the test suite's own structure and on the names the benchmark relies on."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_do_not_import_the_library():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    offending = {name for name in imported if name.split(".")[0] == "connsys" or name.startswith(".")}
    assert not offending, f"tests/oracles.py imports {sorted(offending)}"


def test_cli_keeps_the_names_the_benchmark_wraps():
    """perfbench's traced run routes these module-level names of connsys.cli through spans."""
    from connsys import cli

    tree = ast.parse((ROOT / "perfbench" / "jobs.py").read_text())
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_CALLS"]
    )
    names = set(wrapped) | {
        "load_instance",
        "run_theorem_audit",
        "duality_audit",
        "find_max_antichain",
        "min_chain_cover",
        "brute_force_min_cover_size",
    }
    missing = sorted(name for name in names if not callable(getattr(cli, name, None)))
    assert not missing, f"connsys.cli lacks {missing}"


def test_self_checks_raise_internal_error():
    """A failed self-check raises InternalError, which the command line maps to exit 3."""
    offending = []
    for path in sorted((ROOT / "src" / "connsys").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    offending.append(f"{path.name}:{node.lineno}")
    assert not offending, f"raise InternalError instead of RuntimeError at {offending}"


def test_readme_lists_exactly_the_size_gates():
    """README's gate table names every constant that src/connsys passes to gate_limit, with its value."""
    constants, gated = {}, set()
    for path in sorted((ROOT / "src" / "connsys").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                constants.update((t.id, node.value.value) for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "gate_limit":
                (arg,) = node.args
                assert isinstance(arg, ast.Name), f"{path.name}:{node.lineno} passes gate_limit a non-constant"
                gated.add(arg.id)
    documented = {
        name: int(value)
        for name, value in re.findall(r"^\| `([A-Z_]+)` \| (\d+) \|", (ROOT / "README.md").read_text(), re.M)
    }
    assert documented == {name: constants[name] for name in gated}


def test_library_reads_f_from_the_array_alone():
    """No module of the library reads ``.values``: it builds a 2^n tuple of Python ints on each access.

    Calls of a ``values()`` method, such as a dict's, are not reads of the attribute.
    """
    offending = []
    for path in sorted((ROOT / "src" / "connsys").glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        offending += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values"
            and isinstance(node.ctx, ast.Load) and id(node) not in called
        ]
    assert not offending, f"reads of .values at {offending}"


def test_files_are_read_and_audit_reports_made_in_one_place():
    """Only serialization._read_json opens a file or parses JSON, and only run_theorem_audit builds an AuditReport."""
    owners = {
        "open": ("serialization.py", "_read_json"),
        "json.load": ("serialization.py", "_read_json"),
        "json.loads": ("serialization.py", "_read_json"),
        "AuditReport": ("orders.py", "run_theorem_audit"),
    }
    offending, seen = [], set()
    for path in sorted((ROOT / "src" / "connsys").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = path.name, getattr(top, "name", None)
            for node in ast.walk(top):
                name = ast.unparse(node.func) if isinstance(node, ast.Call) else None
                if name in owners:
                    seen.add(name)
                    if owners[name] != owner:
                        offending.append(f"{path.name}:{node.lineno} calls {name}")
    assert not offending, offending
    assert seen == {"open", "json.load", "AuditReport"}


def test_bitset_helpers_are_defined_once():
    """Each 2^n-bit helper is defined once, in families.py, which alone packs bits; the helpers they replaced are gone."""
    helpers = {"_REVERSED_BYTE", "_element_bitsets", "_pack", "_bitset", "_unpack", "_masks", "_up", "_down"}
    helpers |= {"_strict_down", "_reverse", "_joins", "_meets", "_closure"}
    defined, packing = [], []
    for path in sorted((ROOT / "src" / "connsys").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, path.name))
            elif isinstance(node, ast.Assign):
                defined += [(t.id, path.name) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.Attribute) and node.attr in ("packbits", "unpackbits"):
                packing.append(path.name)
    assert sorted(d for d in defined if d[0] in helpers) == sorted((name, "families.py") for name in helpers)
    gone = {"_subset_transform", "_closure_values", "_submasks", "_decided_below"}
    gone |= {"_Arrays", "_FAILS_ON_ARRAYS", "any_pair"}
    assert not gone & {name for name, _ in defined}
    assert set(packing) == {"families.py"}


@pytest.mark.parametrize("workload", ["small", "scale"])
def test_benchmark_runs_and_checks_one_cycle(workload):
    """Each workload runs its minimum cycles with seconds 0, untraced, and every answer passes its check."""
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stdout[-2000:]
