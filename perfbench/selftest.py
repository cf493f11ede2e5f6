#!/usr/bin/env python3
"""Show that no benchmark check passes vacuously.

Each case takes a right answer from connsys, confirms that the check accepts
it, then feeds the check a deliberately wrong variant and confirms that the
check rejects it.  Exits 1 if any check accepts a wrong answer.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import generate  # noqa: E402
import reference as ref  # noqa: E402

import connsys  # noqa: E402
from connsys import cli  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def case(name: str, right, wrong) -> None:
    """right and wrong are check outcomes: None or a problem string."""
    passed = right is None and wrong is not None
    RESULTS.append((name, passed))
    print(f"{'PASS' if passed else 'FAIL'} {name}: accepts the right answer={right is None}, rejects the wrong one={wrong}")


def system(inst: dict):
    fn = inst["function"]
    build = (
        connsys.ConnectivitySystem.from_edge_cut
        if fn["type"] == "graph_edge_cut"
        else connsys.ConnectivitySystem.from_vertex_cut
    )
    return build(inst["ground_set"], fn["vertices"], fn["edges"])


def main() -> int:
    shape, label = random.Random("selftest:shapes"), random.Random("selftest:0")
    inst = generate.small_vertex_cut("t", shape, label, 7)
    sys_ = system(inst)
    values, n = generate.values_of(inst), 7

    wrong_values = values.copy()
    wrong_values[5] += 1
    case("cut values", checks.cut_values(sys_.values, values), checks.cut_values(sys_.values, wrong_values))

    k = int(values.max()) // 2
    keff = connsys.enumerate_k_efficient(sys_, k)
    case("efficient sets", checks.efficient_sets(values, k, keff), checks.efficient_sets(values, k, keff[1:]))

    bw, lw = connsys.branch_width(sys_), connsys.linear_width(sys_)
    tree = (bw.certificate.edges, bw.certificate.leaf_elements)
    order = lw.certificate.order
    evaluated = (bw.width, lw.width)
    right = checks.width(values, n, bw.width, tree, lw.width, order, evaluated)
    case("branch-width off by one", right,
         checks.width(values, n, bw.width + 1, tree, lw.width, order, (bw.width + 1, lw.width)))
    case("linear-width off by one", right,
         checks.width(values, n, bw.width, tree, lw.width - 1, order, (bw.width, lw.width - 1)))
    swapped = None
    leaves = list(tree[1])
    for i in range(n):
        for j in range(i + 1, n):
            trial = leaves.copy()
            trial[i], trial[j] = trial[j], trial[i]
            if ref.tree_width(values, n, tree[0], trial) != bw.width:
                swapped = tuple(trial)
                break
        if swapped:
            break
    case("branch certificate with two leaves swapped", right,
         checks.width(values, n, bw.width, (tree[0], swapped), lw.width, order, evaluated))

    uf = connsys.construct_ultrafilter(sys_, k)
    members = sorted(uf.members)
    for kind in ("ultrafilter", "filter"):
        case(f"{kind} with one member dropped", checks.family(values, n, members, k, kind),
             checks.family(values, n, members[1:], k, kind))
    base = ref.up_closure(values, n, [members[-1]], k)
    ext = connsys.extend_filter_to_ultrafilter(sys_, connsys.SetFamily(base, k, n))
    outside = next(m for m in keff if m not in ext.members)
    case("extension that drops a member of its filter", checks.extension(values, n, base, ext.members, k),
         checks.extension(values, n, base | {outside}, ext.members, k))
    case("check_family verdict flipped", checks.verdict(values, n, members, k, "ultrafilter", True),
         checks.verdict(values, n, members, k, "ultrafilter", False))

    sb = sorted(m for m in members if m & 1)[:3] or members[:1]
    fam = connsys.generate_from_subbase(sys_, connsys.SetFamily.of(sb, k, n))
    case("generated filter with one member dropped", checks.generated(values, n, sb, k, ("ok", fam.members)),
         checks.generated(values, n, sb, k, ("ok", sorted(fam.members)[1:])))

    chain = connsys.find_sequence_chain(sys_, int(values.max()))
    case("missing sequence chain", checks.sequence_chain(values, n, int(values.max()), chain.sets),
         checks.sequence_chain(values, n, int(values.max()), None))

    widths = (ref.branch_width(values, n), ref.linear_width(values, n))
    for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
        fams = [f.members for f in connsys.enumerate_families(sys_, connsys.EnumerationRequest(kind, k))]
        right = checks.enumeration(values, n, k, kind, fams, widths)
        case(f"{kind} enumeration that lists nothing", right, checks.enumeration(values, n, k, kind, [], widths))
        case(f"{kind} enumeration with one member of a family dropped", right,
             checks.enumeration(values, n, k, kind, [sorted(fams[0])[1:]] + fams[1:], widths))
        case(f"{kind} enumeration with a family listed twice", right,
             checks.enumeration(values, n, k, kind, fams + fams[:1], widths))
        for kk in range(int(values.max()) + 1):  # the first k with two families or more
            fams = [f.members for f in connsys.enumerate_families(sys_, connsys.EnumerationRequest(kind, kk))]
            if len(fams) > 1:
                case(f"{kind} enumeration at k={kk} with its last family left out",
                     checks.enumeration(values, n, kk, kind, fams, widths),
                     checks.enumeration(values, n, kk, kind, fams[:-1], widths))
                break
        else:
            case(f"{kind} enumeration with two families at some k", None, None)
    full = connsys.enumerate_families(sys_, connsys.EnumerationRequest("ultrafilter", k))
    case("limit=1 answer that is not the first family", checks.first_of(full, full[:1]),
         checks.first_of(full, full[1:2]))

    small_inst = generate.small_edge_cut("u", random.Random("selftest:u"), label, 5)
    small, small_values = system(small_inst), generate.values_of(small_inst)
    for kk in range(int(small_values.max()) + 1):
        res = connsys.ultrafilter_number(small, kk)
        if res.u == 1:
            wit = sorted(res.witness_prefilter.members)
            case("ultrafilter number reported as none",
                 checks.ultrafilter_number(small_values, 5, kk, 1, wit),
                 checks.ultrafilter_number(small_values, 5, kk, None, None))
            break
    else:
        case("ultrafilter number of 1", None, None)

    table = generate.planted_table(16)
    failed, problem = checks.planted(table["values"], ("accepted", None))
    RESULTS.append(("accepted planted table counts as failed", failed and problem is None))
    print(f"{'PASS' if failed else 'FAIL'} accepted planted table counts as failed: failed={failed}")
    a, b = table["witness"]
    case("planted table rejected on a pair that is not a violation",
         checks.planted(table["values"], ("rejected", (a, b)))[1],
         checks.planted(table["values"], ("rejected", (a, a)))[1])

    audit_inst = generate.small_vertex_cut("a", random.Random("selftest:a"), label, 4)
    audit_values = generate.values_of(audit_inst)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = generate.write_instance(tmp, audit_inst)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["audit", path, "--theorems", "all", "--k-range", f"0..{int(audit_values.max())}"])
    text = out.getvalue()
    right = checks.audit_report(audit_values, 4, audit_inst["ground_set"], code, text)
    report = json.loads(text)
    report["result"]["audits"][-1]["duality"][0]["width"] += 1
    case("audit duality width off by one", right,
         checks.audit_report(audit_values, 4, audit_inst["ground_set"], code, json.dumps(report)))
    report = json.loads(text)
    report["result"]["audits"][0]["dilworth"]["equal"] = False
    case("audit Dilworth payload not equal", right,
         checks.audit_report(audit_values, 4, audit_inst["ground_set"], code, json.dumps(report)))
    case("audit exit code that disagrees with the report", right,
         checks.audit_report(audit_values, 4, audit_inst["ground_set"], 1 - code, text))
    report = json.loads(text)
    tampered = False
    for entry in report["result"]["audits"]:
        for th in entry.get("theorems", []):
            if th["theorem"] == "TSC-no-antichain" and th["status"] == "counterexample_found":
                th["witness"][1] = th["witness"][1][:1]
                tampered = True
    if tampered:
        case("TSC-no-antichain witness with a one-set antichain", right,
             checks.audit_report(audit_values, 4, audit_inst["ground_set"], code, json.dumps(report)))

    bad = [name for name, passed in RESULTS if not passed]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} cases passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
