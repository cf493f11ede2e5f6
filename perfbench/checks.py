"""Correctness checks on plain data, against the reference module.

Each check returns None when the program's answer is right and a one-line
description of the fault otherwise.  `selftest.py` feeds every check a
deliberately wrong answer to show that none of them passes vacuously.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref


def _fmt(mask: int) -> str:
    return f"{mask:#x}"


def cut_values(program_values, reference_values) -> str | None:
    got = np.asarray(program_values, dtype=np.int64)
    if got.shape != reference_values.shape:
        return f"value table has {got.size} entries, expected {reference_values.size}"
    diff = np.nonzero(got != reference_values)[0]
    if diff.size:
        m = int(diff[0])
        return f"f({_fmt(m)}) = {int(got[m])}, recomputed {int(reference_values[m])}"
    return None


def efficient_sets(values, k: int, got: list[int]) -> str | None:
    want = np.nonzero(np.asarray(values) <= k)[0].tolist()
    if list(got) != want:
        return f"k={k}: {len(got)} efficient sets listed, {len(want)} expected"
    return None


def width(values, n: int, branch: int, tree, linear: int, order, evaluated: tuple[int, int]) -> str | None:
    """Widths equal the reference DPs and each certificate evaluates to its width.

    tree is (edges, leaf_elements); evaluated holds the program's own
    evaluation of the two certificates.
    """
    want_b = ref.branch_width(values, n)
    want_l = ref.linear_width(values, n)
    if branch != want_b:
        return f"branch-width {branch}, reference {want_b}"
    if linear != want_l:
        return f"linear-width {linear}, reference {want_l}"
    tw = ref.tree_width(values, n, tree[0], tree[1])
    if tw != branch:
        return f"branch certificate evaluates to {tw}, claimed {branch}"
    ow = ref.ordering_width(values, n, order)
    if ow != linear:
        return f"linear certificate evaluates to {ow}, claimed {linear}"
    if evaluated != (branch, linear):
        return f"the program evaluates its certificates to {evaluated}, claimed {(branch, linear)}"
    return None


def family(values, n: int, members, k: int, kind: str) -> str | None:
    if not ref.family_holds(values, n, members, k, kind):
        return f"{kind} of order k={k} with {len(members)} members fails the literal axioms"
    return None


def extension(values, n: int, base, result, k: int) -> str | None:
    problem = family(values, n, result, k, "ultrafilter")
    if problem:
        return problem
    missing = set(base) - set(result)
    if missing:
        return f"extension drops {len(missing)} members of its filter, e.g. {_fmt(min(missing))}"
    return None


def verdict(values, n: int, members, k: int, kind: str, holds: bool) -> str | None:
    want = ref.family_holds(values, n, members, k, kind)
    if holds != want:
        return f"check_family says {kind} holds={holds}, reference says {want}"
    return None


def generated(values, n: int, subbase, k: int, outcome) -> str | None:
    """outcome is ("ok", members), ("escape", (a, b, a & b)) or ("empty", None)."""
    status, payload = ref.generated_filter(values, n, subbase, k)
    if outcome[0] != status:
        return f"generation gave {outcome[0]}, reference {status}"
    if status == "ok" and frozenset(outcome[1]) != payload:
        return f"generated filter has {len(outcome[1])} members, reference {len(payload)}"
    if status == "escape":
        a, b, u = outcome[1]
        members = ref.generated_members(values, n, subbase, k)
        if a not in members or b not in members or u != a & b or values[u] > k or u in members:
            return f"escape witness ({_fmt(a)}, {_fmt(b)}, {_fmt(u)}) does not re-verify"
    return None


def sequence_chain(values, n: int, k: int, sets) -> str | None:
    exists = ref.sequence_chain_exists(values, n, k)
    if sets is None:
        return f"k={k}: no sequence chain found but one exists" if exists else None
    if not ref.is_sequence_chain(values, n, k, list(sets)):
        return f"k={k}: the returned sequence chain is not one"
    return None


def planted(values, outcome) -> tuple[bool, str | None]:
    """(failed, problem): accepting a planted table fails the operation."""
    if outcome[0] == "accepted":
        return True, None
    a, b = outcome[1]
    if not ref.violates_submodularity(values, a, b):
        return False, f"rejected on pair ({_fmt(a)}, {_fmt(b)}), which satisfies submodularity"
    return False, None


def enumeration(values, n: int, k: int, kind: str, families, widths: tuple[int, int]) -> str | None:
    """The listed families are exactly the reference's, once each, and obey the duality.

    An obstruction of order k+1 is listed iff the reference width exceeds k:
    a tangle against branch-width, a non-principal (no singleton member)
    ultrafilter against branch-width, a non-principal single ultrafilter
    against linear-width.  widths is the reference (branch, linear) pair.
    """
    listed = set(map(frozenset, families))
    if len(listed) != len(families):
        return f"{kind} k={k}: a family is listed twice"
    want = ref.all_families(values, n, k, kind)
    if listed != want:
        extra, missing = len(listed - want), len(want - listed)
        return f"{kind} k={k}: {extra} listed families are not {kind}s, {missing} of the reference's are missing"
    if kind == "tangle":
        found, what = bool(families), "tangle"
    else:
        found, what = any(all(m & (m - 1) for m in members) for members in families), f"non-principal {kind}"
    name, width = ("linear", widths[1]) if kind == "single_ultrafilter" else ("branch", widths[0])
    if found != (width > k):
        return f"{what} of order {k + 1} listed={found} but reference {name}-width is {width}"
    return None


def first_of(full, limited) -> str | None:
    want = list(full[:1])
    if list(limited) != want:
        return f"limit=1 gave {len(limited)} families, not the first of {len(full)}"
    return None


def ultrafilter_number(values, n: int, k: int, u, witness) -> str | None:
    """u = 1 with a witness whose up-closure is a non-principal ultrafilter, or None if no set's is."""
    if u is not None:
        if u != 1 or witness is None or len(witness) != 1:
            return f"k={k}: u={u} with witness {witness}"
        gen = ref.up_closure(values, n, witness, k)
        if not ref.family_holds(values, n, gen, k, "ultrafilter") or any(m & (m - 1) == 0 for m in gen):
            return f"k={k}: the witness does not generate a non-principal ultrafilter"
        return None
    for base in np.nonzero(np.asarray(values) <= k)[0].tolist():
        gen = ref.up_closure(values, n, [base], k)
        if base and all(m & (m - 1) for m in gen) and ref.family_holds(values, n, gen, k, "ultrafilter"):
            return f"k={k}: u is None but {_fmt(base)} generates a non-principal ultrafilter"
    return None


# ------------------------------------------------------------------- audits


def audit_report(values, n: int, labels, code: int, text: str) -> str | None:
    """Exit code 0 or 1 matching the report; duality, Dilworth and witnesses re-verify."""
    if code not in (0, 1):
        return f"exit code {code}"
    index = {lab: i for i, lab in enumerate(labels)}

    def mask(key: str) -> int:
        return sum(1 << index[lab] for lab in key.split(",")) if key else 0

    report = json.loads(text)
    flagged = False
    bw = lw = None
    for entry in report["result"]["audits"]:
        k = entry["k"]
        for dv in entry.get("duality", []):
            if bw is None:
                bw, lw = ref.branch_width(values, n), ref.linear_width(values, n)
            want = lw if dv["kind"] == "single_ultrafilter" else bw
            if not dv["consistent"]:
                return f"k={k}: {dv['kind']} duality verdict is inconsistent"
            if dv["width"] != want:
                return f"k={k}: {dv['kind']} duality width {dv['width']}, reference {want}"
            if dv["width_side"] != (want <= k):
                return f"k={k}: {dv['kind']} width side {dv['width_side']} for width {want}"
        if "dilworth" in entry and not entry["dilworth"]["equal"]:
            return f"k={k}: Dilworth payload is not equal"
        for th in entry.get("theorems", []):
            if th["status"] != "counterexample_found":
                continue
            flagged = True
            problem = _audit_witness(values, n, k, th["theorem"], th["witness"], mask)
            if problem:
                return problem
    if code != int(flagged):
        return f"exit code {code} but counterexample found is {flagged}"
    return None


def _audit_witness(values, n: int, k: int, theorem: str, witness, mask) -> str | None:
    if theorem == "T3.6-exactly-one":
        chain = [mask(s) for s in witness[0]]
        uf = {mask(s) for s in witness[1]}
        if not ref.is_chain(values, k, chain):
            return f"k={k}: T3.6 witness chain is not a chain of order {k + 1}"
        if not ref.family_holds(values, n, uf, k, "ultrafilter"):
            return f"k={k}: T3.6 witness family is not an ultrafilter"
        if sum(1 for s in chain if s in uf) == 1:
            return f"k={k}: T3.6 witness chain meets the ultrafilter exactly once"
    elif theorem == "TSC-no-antichain":
        seq = [mask(s) for s in witness[0]]
        anti = [mask(s) for s in witness[1]]
        if not ref.is_sequence_chain(values, n, k, seq):
            return f"k={k}: TSC-no-antichain witness is not a sequence chain"
        if len(anti) < 2 or not ref.is_antichain(values, k, anti):
            return f"k={k}: TSC-no-antichain witness is not an antichain of two or more sets"
    return None
