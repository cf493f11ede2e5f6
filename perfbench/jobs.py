"""Turn a generated plan into set-up calls and jobs against connsys, each with its check.

A job's `run(tr, done)` makes the program calls of one operation through the
tracer `tr` and returns a plain, comparable result; `done` maps earlier job
indices of the same round to their results.  `check(result, first)` runs once,
on the first round, outside the timed region, and returns (failed, problem).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

import checks
import generate
import reference as ref

import connsys
from connsys import cli, core, serialization
from connsys.errors import EfficiencyEscape, EmptyIntersection, SubmodularityViolation

# The library functions `connsys.cli` calls by module-level name, and the span
# each gets in the traced run, so that cli.main's self time is the command
# line's own work: argument parsing, glue and report emission.
CLI_CALLS = {
    "load_instance": "serialization.load",
    "run_theorem_audit": "orders.theorem_audit",
    "duality_audit": "decomposition.duality",
    "find_max_antichain": "orders.antichain",
    "min_chain_cover": "orders.chain_cover",
    "brute_force_min_cover_size": "orders.chain_cover",
}


@dataclass
class Job:
    op: str
    name: str
    run: Callable
    check: Callable


def answered(problem: str | None) -> tuple[bool, str | None]:
    """The operation gave an answer (it did not fail); problem says what is wrong with it."""
    return False, problem


class Workload:
    """The instances of one plan, built by `setup`, and the jobs that use them."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.specs = {inst["name"]: inst for inst in plan["instances"]}
        self.systems: dict[str, connsys.ConnectivitySystem] = {}
        self._value_cache: dict[str, object] = {}
        self._width_cache: dict[str, tuple[int, int]] = {}

    def values(self, name: str):
        """Reference cut values of an instance, computed when a check or a job input first needs them."""
        if name not in self._value_cache:
            self._value_cache[name] = generate.values_of(self.specs[name])
        return self._value_cache[name]

    def widths(self, name: str) -> tuple[int, int]:
        """Reference (branch-width, linear-width) of an instance."""
        if name not in self._width_cache:
            values, n = self.values(name), len(self.specs[name]["ground_set"])
            self._width_cache[name] = (ref.branch_width(values, n), ref.linear_width(values, n))
        return self._width_cache[name]

    # -------------------------------------------------------------- set-up

    def setup(self, tr) -> dict[str, float]:
        """Build and validate every instance; returns the seconds spent in program calls, per instance."""
        self.systems = {}  # drop the previous set-up's systems before building new ones
        systems = {}
        spent = {}
        for name, inst in self.specs.items():
            fn = inst["function"]
            labels = inst["ground_set"]
            start = time.perf_counter()
            if "path" in inst:
                system = tr.call("serialization.load", serialization.load_instance, inst["path"])
            elif fn["type"] == "graph_edge_cut":
                system = tr.call(
                    "core.build", connsys.ConnectivitySystem.from_edge_cut, labels, fn["vertices"], fn["edges"]
                )
            else:
                system = tr.call(
                    "core.build", connsys.ConnectivitySystem.from_vertex_cut, labels, fn["vertices"], fn["edges"]
                )
            spent[name] = time.perf_counter() - start
            systems[name] = system
            tr.count("core.validated_pairs", system.validation["pairs"])
            if not tr.traced:
                continue
            edges = [tuple(e) for e in fn["edges"]]
            if fn["type"] == "graph_edge_cut":
                tr.call("core.values", core.edge_cut_values, len(labels), fn["vertices"], edges)
            else:
                tr.call("core.values", core.vertex_cut_values, fn["vertices"], edges)
        self.systems = systems
        return spent

    def setup_problems(self) -> list[str]:
        """Cut values of every built instance match the recomputation from its edge list."""
        out = []
        for name, system in self.systems.items():
            problem = checks.cut_values(system.values, self.values(name))
            if problem:
                out.append(f"{name}: {problem}")
        return out

    # ---------------------------------------------------------------- jobs

    def jobs(self) -> list[Job]:
        return [getattr(self, "_" + spec["op"])(i, spec) for i, spec in enumerate(self.plan["jobs"])]

    def _ctx(self, spec):
        """Reference values and ground-set size of a job's instance."""
        name = spec["instance"]
        return self.values(name), len(self.specs[name]["ground_set"])

    def _keff(self, i, spec):
        k = spec["k"]

        def run(tr, done):
            sets = tr.call("core.keff", core.enumerate_k_efficient, self.systems[spec["instance"]], k)
            tr.count("core.efficient_sets", len(sets))
            return sets

        def check(result, first):
            return answered(checks.efficient_sets(self.values(spec["instance"]), k, result))

        return Job(spec["op"], f"keff {spec['instance']} k={k}", run, check)

    def _construct(self, i, spec):
        k = spec["k"]

        def run(tr, done):
            fam, ops = tr.call(
                "construction.construct", connsys.construct_ultrafilter_with_stats, self.systems[spec["instance"]], k
            )
            tr.count("construction.construct_ops", ops)
            return fam

        def check(result, first):
            values, n = self._ctx(spec)
            return answered(checks.family(values, n, result.members, k, "ultrafilter"))

        return Job(spec["op"], f"construct {spec['instance']} k={k}", run, check)

    def _extend(self, i, spec):
        k = spec["k"]
        values, n = self._ctx(spec)
        base = ref.up_closure(values, n, [spec["base"]], k)
        filt = connsys.SetFamily(base, k, n)

        def run(tr, done):
            return tr.call(
                "construction.extend", connsys.extend_filter_to_ultrafilter, self.systems[spec["instance"]], filt
            )

        def check(result, first):
            return answered(checks.extension(values, n, base, result.members, k))

        return Job(spec["op"], f"extend {spec['instance']} k={k}", run, check)

    def _generate(self, i, spec):
        k = spec["k"]
        sb = connsys.SetFamily(frozenset(spec["subbase"]), k, len(self.specs[spec["instance"]]["ground_set"]))

        def run(tr, done):
            try:
                fam = tr.call("construction.generate", connsys.generate_from_subbase, self.systems[spec["instance"]], sb)
            except EfficiencyEscape as exc:
                return ("escape", (exc.a_mask, exc.b_mask, exc.missing_mask))
            except EmptyIntersection:
                return ("empty", None)
            return ("ok", fam)

        def check(result, first):
            outcome = (result[0], result[1].members) if result[0] == "ok" else result
            values, n = self._ctx(spec)
            return answered(checks.generated(values, n, spec["subbase"], k, outcome))

        return Job(spec["op"], f"generate {spec['instance']} k={k}", run, check)

    def _check(self, i, spec):
        source = self.plan["jobs"][spec["source"]]
        kind = spec["kind"]

        def family_of(result):
            return result[1] if isinstance(result, tuple) else result

        def run(tr, done):
            fam = family_of(done[spec["source"]])
            tr.count("families.check_calls")
            verdict = tr.call("families.check", connsys.check_family, self.systems[source["instance"]], fam, kind)
            return verdict.holds

        def check(result, first):
            fam = family_of(first[spec["source"]])
            values, n = self._ctx(source)
            return answered(checks.verdict(values, n, fam.members, fam.k, kind, result))

        return Job(spec["op"], f"check_family {kind} of job {spec['source']}", run, check)

    def _sequence_chain(self, i, spec):
        k = spec["k"]

        def run(tr, done):
            chain = tr.call("orders.sequence_chain", connsys.find_sequence_chain, self.systems[spec["instance"]], k)
            return None if chain is None else chain.sets

        def check(result, first):
            values, n = self._ctx(spec)
            return answered(checks.sequence_chain(values, n, k, result))

        return Job(spec["op"], f"sequence_chain {spec['instance']} k={k}", run, check)

    def _planted(self, i, spec):
        entry = next(p for p in self.plan["planted"] if p["name"] == spec["instance"])
        table, labels = _read_table(entry["path"])

        def run(tr, done):
            try:
                tr.call("core.planted", connsys.ConnectivitySystem.from_table, labels, table)
            except SubmodularityViolation as exc:
                return ("rejected", (exc.a_mask, exc.b_mask))
            return ("accepted", None)

        def check(result, first):
            return checks.planted(generate.planted_table(entry["n"])["values"], result)

        return Job(spec["op"], f"validate {entry['name']}", run, check)

    def _widths(self, i, spec):
        name = spec["instance"]

        def run(tr, done):
            system = self.systems[name]
            bw = tr.call("decomposition.branch", connsys.branch_width, system)
            bw_eval = tr.call("decomposition.cert_eval", connsys.decomposition_width, system, bw.certificate)
            lw = tr.call("decomposition.linear", connsys.linear_width, system)
            lw_eval = tr.call("decomposition.cert_eval", connsys.ordering_width, system, lw.certificate)
            return (bw, lw, (bw_eval, lw_eval))

        def check(result, first):
            bw, lw, evaluated = result
            values, n = self._ctx(spec)
            tree = (bw.certificate.edges, bw.certificate.leaf_elements)
            return answered(checks.width(values, n, bw.width, tree, lw.width, lw.certificate.order, evaluated))

        return Job(spec["op"], f"widths {name}", run, check)

    def _enumerate(self, i, spec):
        kind, k = spec["kind"], spec["k"]
        req = connsys.EnumerationRequest(kind, k)

        def run(tr, done):
            fams = tr.call("construction.enumerate", connsys.enumerate_families, self.systems[spec["instance"]], req)
            tr.count("construction.families_found", len(fams))
            return fams

        def check(result, first):
            values, n = self._ctx(spec)
            widths = self.widths(spec["instance"])
            return answered(checks.enumeration(values, n, k, kind, [f.members for f in result], widths))

        return Job(spec["op"], f"enumerate {kind} {spec['instance']} k={k}", run, check)

    def _enumerate_first(self, i, spec):
        kind, k = spec["kind"], spec["k"]
        req = connsys.EnumerationRequest(kind, k, limit=1)

        def run(tr, done):
            return tr.call(
                "construction.enumerate_first", connsys.enumerate_families, self.systems[spec["instance"]], req
            )

        def check(result, first):
            return answered(checks.first_of(first[spec["source"]], result))

        return Job(spec["op"], f"enumerate limit=1 {kind} {spec['instance']} k={k}", run, check)

    def _ultrafilter_number(self, i, spec):
        k = spec["k"]

        def run(tr, done):
            res = tr.call("construction.ufnum", connsys.ultrafilter_number, self.systems[spec["instance"]], k)
            witness = None if res.witness_prefilter is None else res.witness_prefilter.members
            return (res.u, witness)

        def check(result, first):
            values, n = self._ctx(spec)
            u, witness = result
            return answered(checks.ultrafilter_number(values, n, k, u, None if witness is None else sorted(witness)))

        return Job(spec["op"], f"ultrafilter_number {spec['instance']} k={k}", run, check)

    def _audit(self, i, spec):
        inst = self.specs[spec["instance"]]
        lo, hi = spec["k_range"]
        argv = ["audit", inst["path"], "--theorems", spec["theorems"], "--k-range", f"{lo}..{hi}"]

        def run(tr, done):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tr.wrapped(cli, CLI_CALLS):
                code = tr.call("cli.main", cli.main, argv)
            text = out.getvalue()
            tr.count("serialization.report_bytes", len(text.encode()))
            return (code, text, err.getvalue())

        def check(result, first):
            code, text, err = result
            if code not in (0, 1):
                return True, None  # the command did not run to a verdict
            values, n = self._ctx(spec)
            return answered(checks.audit_report(values, n, inst["ground_set"], code, text))

        return Job(spec["op"], f"cli audit --theorems {spec['theorems']} {spec['instance']} k={lo}..{hi}", run, check)


def _read_table(path: str) -> tuple[dict[int, int], list[str]]:
    """A planted table file as {mask: value}, parsed by the benchmark rather than timed."""
    with open(path) as fh:
        data = json.load(fh)
    labels = data["ground_set"]
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for key, val in data["function"]["values"].items():
        mask = 0
        if key:
            for lab in key.split(","):
                mask |= 1 << index[lab]
        table[mask] = val
    return table, labels
