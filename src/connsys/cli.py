"""Command-line front end: JSON in, deterministic JSON reports out.

Exit codes: 0 success; 1 a requested check or audit reported a violation,
counterexample, or inconsistency, as does validate on a function that is not
symmetric or not submodular (a report is still emitted); 2 input or size
errors, which include that function given to any other command (diagnostic
on stderr); 3 an internal error: a self-check of the library failed, or
some other unexpected exception was raised (one ``InternalError: ...`` line
on stderr, no traceback, no report). An audit whose size gate stops one k
still reports every other k, puts the gate's message in that k's entry, and
exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
import time

from . import __version__
from .construction import (
    EnumerationRequest,
    construct_ultrafilter_with_stats,
    enumerate_families,
    extend_filter_to_ultrafilter,
    generate_from_subbase,
    ultrafilter_number,
)
from .core import ConnectivitySystem
from .decomposition import branch_width, decomposition_width, duality_audit, linear_width, ordering_width
from .errors import (
    ConnSysError,
    EfficiencyEscape,
    EmptyIntersection,
    FunctionViolation,
    InputError,
    InternalError,
    SizeGateExceeded,
)
from .families import check_family, classify_family, derived_flags
from .orders import (
    BRUTE_COVER_MAX_FAMILY,
    CHAIN_THEOREMS,
    FAMILY_THEOREMS,
    THEOREM_IDS,
    _nonempty_efficient,
    brute_force_min_cover_size,
    find_max_antichain,
    min_chain_cover,
    run_theorem_audit,
)
from .serialization import (
    audit_report_to_json,
    chain_to_json,
    duality_to_json,
    dumps_report,
    family_to_json,
    flags_to_json,
    load_certificate,
    load_family,
    load_instance,
    subset_key,
    verdict_to_json,
    width_result_to_json,
)

BRUTE_COVER_LIMIT = 15


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call."""
    p = argparse.ArgumentParser(prog="connsys", description=__doc__)
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("validate", help="validate an instance")
    sp.add_argument("instance")

    sp = sub.add_parser("width", help="exact branch or linear width")
    sp.add_argument("mode", choices=["branch", "linear"])
    sp.add_argument("instance")
    sp.add_argument("--certificate", action="store_true", help="include an optimal certificate")
    sp.add_argument("--eval-certificate", metavar="PATH", help="evaluate a supplied certificate instead")

    sp = sub.add_parser("family", help="family operations")
    sp.add_argument("action", choices=["check"])
    sp.add_argument("instance")
    sp.add_argument("--kind", required=True)
    sp.add_argument("-k", type=int, required=True, dest="k")
    sp.add_argument("--family", required=True)
    sp.add_argument("--single-mode", choices=["QS1", "QSD1"], default="QS1")

    sp = sub.add_parser("enumerate", help="enumerate obstruction families")
    sp.add_argument("what", choices=["ultrafilters", "tangles"])
    sp.add_argument("instance")
    sp.add_argument("-k", type=int, required=True, dest="k")
    sp.add_argument("--non-principal", action="store_true")
    sp.add_argument("--limit", type=int, default=None)

    sp = sub.add_parser("construct", help="construct an ultrafilter from scratch")
    sp.add_argument("what", choices=["ultrafilter"])
    sp.add_argument("instance")
    sp.add_argument("-k", type=int, required=True, dest="k")

    sp = sub.add_parser("extend", help="extend a filter to an ultrafilter")
    sp.add_argument("instance")
    sp.add_argument("--family", required=True)

    sp = sub.add_parser("generate", help="generate a filter from a subbase")
    sp.add_argument("instance")
    sp.add_argument("--subbase", required=True)
    sp.add_argument("-k", type=int, required=True, dest="k")

    sp = sub.add_parser("audit", help="run theorem audits")
    sp.add_argument("instance")
    sp.add_argument("--theorems", default="all", choices=["all", "duality", "dilworth", "chains", "families"])
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int, dest="k")
    group.add_argument("--k-range", metavar="A..B")

    sp = sub.add_parser("dilworth", help="max antichain vs minimum chain cover")
    sp.add_argument("instance")
    sp.add_argument("-k", type=int, required=True, dest="k")

    sp = sub.add_parser("ultrafilter-number", help="minimum generating prefilter size")
    sp.add_argument("instance")
    sp.add_argument("-k", type=int, required=True, dest="k")
    return p


def _report(args, argv, result: dict, started: float) -> dict:
    return {
        "command": "connsys " + " ".join(argv),
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000.0, 3) if args.timing else None,
        "version": __version__,
    }


def _run_validate(args, sys: ConnectivitySystem):
    result = {
        "valid": True,
        "n": sys.n,
        "max_f": sys.max_value,
        "function_type": sys.spec_kind,
        "validation": {
            "mode": sys.validation.get("mode"),
            "pairs": sys.validation.get("pairs"),
        },
    }
    return result, 0


def _invalid_function(exc: FunctionViolation) -> dict:
    return {
        "valid": False,
        "violation": type(exc).__name__,
        "witnesses": list(exc.subsets),
        "message": str(exc),
    }


def _run_width(args, sys: ConnectivitySystem):
    if args.eval_certificate:
        cert = load_certificate(args.eval_certificate, sys, args.mode)
        if args.mode == "branch":
            width = decomposition_width(sys, cert)
        else:
            width = ordering_width(sys, cert)
        return {"width": width, "evaluated": True}, 0
    if args.mode == "branch":
        result = branch_width(sys)
    else:
        result = linear_width(sys)
    return width_result_to_json(sys, result, args.certificate), 0


def _run_family(args, sys: ConnectivitySystem):
    fam = load_family(args.family, sys, k=args.k)
    verdict = check_family(sys, fam, args.kind, single_mode=args.single_mode)
    out = verdict_to_json(sys, verdict, derived_flags(sys, fam, args.kind))
    out["kind"] = args.kind
    out["flags"] = flags_to_json(classify_family(sys, fam))
    return out, 0 if verdict.holds else 1


def _run_enumerate(args, sys: ConnectivitySystem):
    kind = "ultrafilter" if args.what == "ultrafilters" else "tangle"
    req = EnumerationRequest(kind, args.k, non_principal_only=args.non_principal, limit=args.limit)
    families = enumerate_families(sys, req)
    return {
        "kind": kind,
        "k": args.k,
        "count": len(families),
        "families": [family_to_json(sys, f) for f in families],
    }, 0


def _run_construct(args, sys: ConnectivitySystem):
    fam, ops = construct_ultrafilter_with_stats(sys, args.k)
    return {"family": family_to_json(sys, fam), "operations": ops}, 0


def _run_extend(args, sys: ConnectivitySystem):
    fam = load_family(args.family, sys)
    result = extend_filter_to_ultrafilter(sys, fam)
    return {"family": family_to_json(sys, result)}, 0


def _run_generate(args, sys: ConnectivitySystem):
    subbase = load_family(args.subbase, sys, k=args.k)
    try:
        fam = generate_from_subbase(sys, subbase)
    except EmptyIntersection as exc:
        return {
            "error": "EmptyIntersection",
            "witnesses": [subset_key(sys, w) for w in exc.witnesses],
        }, 1
    except EfficiencyEscape as exc:
        return {
            "error": "EfficiencyEscape",
            "witnesses": [
                subset_key(sys, exc.a_mask),
                subset_key(sys, exc.b_mask),
                subset_key(sys, exc.missing_mask),
            ],
        }, 1
    return {"family": family_to_json(sys, fam)}, 0


def _dilworth_payload(
    sys: ConnectivitySystem, k: int, brute_gate: int = BRUTE_COVER_LIMIT
) -> tuple[dict, bool]:
    antichain = find_max_antichain(sys, k)
    family = _nonempty_efficient(sys, k)
    chains = min_chain_cover(sys, family, k)
    payload = {
        "k": k,
        "family_size": len(family),
        "max_antichain": [subset_key(sys, m) for m in antichain.sets],
        "max_antichain_size": len(antichain.sets),
        "min_cover_size": len(chains),
        "chains": [chain_to_json(sys, c) for c in chains],
        "equal": len(antichain.sets) == len(chains),
    }
    if len(family) <= brute_gate:
        brute = brute_force_min_cover_size(sys, family, k)
        payload["brute_force_cover_size"] = brute
        payload["equal"] = payload["equal"] and brute == len(chains)
    return payload, payload["equal"]


def _run_dilworth(args, sys: ConnectivitySystem):
    payload, ok = _dilworth_payload(sys, args.k)
    return payload, 0 if ok else 1


def _run_ultrafilter_number(args, sys: ConnectivitySystem):
    result = ultrafilter_number(sys, args.k)
    out = {"u": result.u}
    out["witness_prefilter"] = (
        family_to_json(sys, result.witness_prefilter) if result.witness_prefilter else None
    )
    return out, 0


def _parse_k_range(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad k range {text!r}; expected a..b") from None
    if hi < lo:
        raise InputError(f"empty k range {text!r}")
    return list(range(lo, hi + 1))


def _run_audit(args, sys: ConnectivitySystem):
    ks = [args.k] if args.k is not None else _parse_k_range(args.k_range)
    selection = args.theorems
    failed = gated = False
    per_k = []
    for k in ks:
        try:
            entry, found = _audit_at(sys, k, selection)
            failed |= found
        except SizeGateExceeded as exc:
            message = f"{type(exc).__name__}: {exc}"
            print(f"k={k}: {message}", file=_sys.stderr)
            entry, gated = {"k": k, "gated": message}, True
        per_k.append(entry)
    return {"theorems_selection": selection, "audits": per_k}, 2 if gated else 1 if failed else 0


def _audit_at(sys: ConnectivitySystem, k: int, selection: str) -> tuple[dict, bool]:
    """One k's audit entry, and whether any of its audits found a counterexample."""
    entry: dict = {"k": k}
    failed = False
    if selection in ("all", "chains", "families"):
        if selection == "chains":
            ids = CHAIN_THEOREMS
        elif selection == "families":
            ids = FAMILY_THEOREMS
        else:
            ids = THEOREM_IDS
        reports = run_theorem_audit(sys, k, ids)
        entry["theorems"] = [audit_report_to_json(sys, r) for r in reports]
        failed |= any(r.status == "counterexample_found" for r in reports)
    if selection in ("all", "duality"):
        verdicts = [duality_audit(sys, k, kind) for kind in ("ultrafilter", "tangle", "single_ultrafilter")]
        entry["duality"] = [duality_to_json(sys, v) for v in verdicts]
        failed |= any(not v.consistent for v in verdicts)
    if selection in ("all", "dilworth"):
        payload, ok = _dilworth_payload(sys, k, brute_gate=BRUTE_COVER_MAX_FAMILY)
        entry["dilworth"] = payload
        failed |= not ok
    return entry, failed


_HANDLERS = {
    "validate": _run_validate,
    "width": _run_width,
    "family": _run_family,
    "enumerate": _run_enumerate,
    "construct": _run_construct,
    "extend": _run_extend,
    "generate": _run_generate,
    "audit": _run_audit,
    "dilworth": _run_dilworth,
    "ultrafilter-number": _run_ultrafilter_number,
}


def main(argv=None) -> int:
    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        try:
            system = load_instance(args.instance)
        except FunctionViolation as exc:
            if args.verb != "validate":
                raise
            result, code = _invalid_function(exc), 1
        else:
            result, code = _HANDLERS[args.verb](args, system)
    except ConnSysError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2
    except InternalError as exc:
        print(f"InternalError: {exc}", file=_sys.stderr)
        return 3
    except Exception as exc:  # any other failure is a defect too
        print(f"InternalError: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3
    _sys.stdout.write(dumps_report(_report(args, argv, result, started)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
