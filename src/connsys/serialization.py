"""JSON wire formats: instances, families, certificates, and report payloads.

Subsets travel as comma-joined element labels in ground-set order, with the
empty string for the empty set. All emitters build dicts in a fixed key
order so reports are byte-identical across runs.
"""

from __future__ import annotations

import json

from .core import ConnectivitySystem
from .decomposition import BranchDecomposition, LinearOrdering, WidthResult
from .errors import InputError, MalformedTree
from .families import FamilyFlags, SetFamily, Verdict
from .orders import AuditReport, Chain


def _read_json(path: str, what: str):
    """The JSON value in a file, read for what ("instance", "family", "certificate").

    Every failure to read or parse the file is an InputError, including an
    integer past Python's digit limit and nesting past the recursion limit.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None


def load_instance(path: str) -> ConnectivitySystem:
    return instance_from_dict(_read_json(path, "instance"))


def instance_from_dict(data: dict) -> ConnectivitySystem:
    if not isinstance(data, dict) or "ground_set" not in data or "function" not in data:
        raise InputError("instance JSON needs 'ground_set' and 'function' keys")
    labels = data["ground_set"]
    fn = data["function"]
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise InputError("'ground_set' must be a list of strings")
    if not isinstance(fn, dict):
        raise InputError("'function' must be an object")
    kind = fn.get("type")
    if kind == "table":
        values = fn.get("values", {})
        if not isinstance(values, dict):
            raise InputError("table function needs a 'values' object")
        # label tuples, so that from_table finds keys that name one subset twice
        table = {tuple(key.split(",")) if key else (): val for key, val in values.items()}
        try:
            return ConnectivitySystem.from_table(labels, table)
        except KeyError as exc:  # an unknown element label
            raise InputError(exc.args[0]) from None
    if kind in ("graph_edge_cut", "graph_vertex_cut"):
        for key in ("vertices", "edges"):
            if key not in fn:
                raise InputError(f"{kind} function needs a {key!r} key")
        vertices, edges = fn["vertices"], fn["edges"]
        if type(vertices) is not int or vertices < 1:
            raise InputError(f"'vertices' must be an integer >= 1, not {vertices!r}")
        if not isinstance(edges, list):
            raise InputError("'edges' must be a list of vertex pairs")
        for i, edge in enumerate(edges):
            if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
                raise InputError(f"edge {i} in 'edges' must be a pair of integers, not {edge!r}")
        build = ConnectivitySystem.from_edge_cut if kind == "graph_edge_cut" else ConnectivitySystem.from_vertex_cut
        return build(labels, vertices, edges)
    raise InputError(f"unknown function type {kind!r}")


def load_family(path: str, sys: ConnectivitySystem, k: int | None = None) -> SetFamily:
    return family_from_dict(_read_json(path, "family"), sys, k=k)


def family_from_dict(data: dict, sys: ConnectivitySystem, k: int | None = None) -> SetFamily:
    if not isinstance(data, dict) or "sets" not in data:
        raise InputError("family JSON needs a 'sets' key")
    bound = k
    if bound is None:
        bound = data.get("k")
        if bound is None:
            raise InputError("family JSON needs a 'k' bound (or pass -k)")
        if type(bound) is not int or bound < 0:
            raise InputError(f"family 'k' must be an integer >= 0, not {bound!r}")
    sets = data["sets"]
    if not isinstance(sets, list):
        raise InputError("family 'sets' must be a list of subsets")
    members = []
    for i, entry in enumerate(sets):
        if not (isinstance(entry, str) or (isinstance(entry, list) and all(isinstance(lab, str) for lab in entry))):
            raise InputError(f"set {i} in 'sets' must be a string or a list of strings, not {entry!r}")
        try:
            if isinstance(entry, str):
                members.append(sys.ground.mask_from_key(entry))
            else:
                members.append(sys.ground.mask_of(entry))
        except KeyError as exc:
            raise InputError(exc.args[0]) from None
    return SetFamily(frozenset(members), bound, sys.n)


def subset_key(sys: ConnectivitySystem, mask: int) -> str:
    return sys.ground.subset_key(mask)


def family_to_json(sys: ConnectivitySystem, fam: SetFamily) -> dict:
    return {"k": fam.k, "sets": [subset_key(sys, m) for m in fam.sorted_members()]}


def verdict_to_json(sys: ConnectivitySystem, verdict: Verdict, derived: dict) -> dict:
    out = {
        "holds": verdict.holds,
        "violated_axiom": verdict.violated_axiom,
        "witnesses": [subset_key(sys, w) for w in verdict.witnesses],
    }
    if derived:
        out["derived"] = {key: derived[key] for key in sorted(derived)}
    return out


def flags_to_json(flags: FamilyFlags) -> dict:
    return {
        "principal": flags.principal,
        "non_principal": flags.non_principal,
        "uniform": flags.uniform,
    }


def branch_to_json(sys: ConnectivitySystem, d: BranchDecomposition) -> dict:
    parents = [d.parents[node] for node in range(len(d.parents))]
    leaves = {str(i): sys.ground.labels[e] for i, e in enumerate(d.leaf_elements)}
    return {"type": "branch", "parents": parents, "leaves": leaves}


def branch_from_json(sys: ConnectivitySystem, data: dict) -> BranchDecomposition:
    parents = data.get("parents")
    leaves = data.get("leaves", {})
    if parents is None:
        raise InputError("branch certificate needs a 'parents' array")
    if not isinstance(parents, list):
        raise InputError(f"'parents' must be a list of node indices or nulls, not {parents!r}")
    if not isinstance(leaves, dict):
        raise InputError(f"'leaves' must be an object from leaf nodes to element labels, not {leaves!r}")
    n = sys.n
    edges = []
    for node, parent in enumerate(parents):
        if parent is not None:
            if type(parent) is not int:
                raise InputError(f"entry {node} in 'parents' must be a node index or null, not {parent!r}")
            edges.append((min(node, parent), max(node, parent)))
    elements = []
    for i in range(n):
        label = leaves.get(str(i))
        if label is None:
            raise MalformedTree(f"missing leaf label for node {i}")
        elements.append(_element_index(sys, label, f"leaf '{i}' in 'leaves'"))
    return BranchDecomposition(n, tuple(edges), tuple(elements))


def _element_index(sys: ConnectivitySystem, label, where: str) -> int:
    if not isinstance(label, str):
        raise InputError(f"{where} must be an element label, not {label!r}")
    try:
        return sys.ground.index(label)
    except KeyError as exc:
        raise InputError(f"{where}: {exc.args[0]}") from None


def linear_to_json(sys: ConnectivitySystem, ordering: LinearOrdering) -> dict:
    return {"type": "linear", "order": [sys.ground.labels[e] for e in ordering.order]}


def linear_from_json(sys: ConnectivitySystem, data: dict) -> LinearOrdering:
    order = data.get("order")
    if order is None:
        raise InputError("linear certificate needs an 'order' array")
    if not isinstance(order, list):
        raise InputError(f"'order' must be a list of element labels, not {order!r}")
    return LinearOrdering(tuple(_element_index(sys, lab, f"entry {i} in 'order'") for i, lab in enumerate(order)))


def certificate_to_json(sys: ConnectivitySystem, cert) -> dict:
    if isinstance(cert, BranchDecomposition):
        return branch_to_json(sys, cert)
    if isinstance(cert, LinearOrdering):
        return linear_to_json(sys, cert)
    raise TypeError(f"not a certificate: {cert!r}")


def load_certificate(path: str, sys: ConnectivitySystem, kind: str):
    return certificate_from_json(sys, _read_json(path, "certificate"), kind)


def certificate_from_json(sys: ConnectivitySystem, data: dict, kind: str):
    """Parse a certificate whose "type" must be kind, "branch" or "linear"."""
    if not isinstance(data, dict):
        raise InputError("certificate JSON must be an object")
    if data.get("type") != kind:
        raise InputError(f"certificate 'type' must be {kind!r}, not {data.get('type')!r}")
    return branch_from_json(sys, data) if kind == "branch" else linear_from_json(sys, data)


def width_result_to_json(
    sys: ConnectivitySystem, result: WidthResult, include_certificate: bool
) -> dict:
    out = {"width": result.width}
    if include_certificate:
        out["certificate"] = certificate_to_json(sys, result.certificate)
    return out


def _witness_item_to_json(sys: ConnectivitySystem, item):
    if isinstance(item, int):
        return subset_key(sys, item)
    if isinstance(item, frozenset):
        return [_witness_item_to_json(sys, x) for x in sorted(item)]
    if isinstance(item, (tuple, list)):
        return [_witness_item_to_json(sys, x) for x in item]
    return item


def audit_report_to_json(sys: ConnectivitySystem, report: AuditReport) -> dict:
    return {
        "theorem": report.theorem_id,
        "instance": report.instance,
        "status": report.status,
        "witness": [_witness_item_to_json(sys, item) for item in report.witness],
        "detail": report.detail,
    }


def duality_to_json(sys: ConnectivitySystem, verdict) -> dict:
    out = {
        "kind": verdict.kind,
        "k": verdict.k,
        "width": verdict.width,
        "width_side": verdict.width_side,
        "obstruction_side": verdict.obstruction_side,
        "consistent": verdict.consistent,
    }
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        if isinstance(ce, SetFamily):
            out["counterexample"] = family_to_json(sys, ce)
        else:
            out["counterexample"] = certificate_to_json(sys, ce)
    return out


def chain_to_json(sys: ConnectivitySystem, chain: Chain) -> dict:
    return {"k": chain.k, "sets": [subset_key(sys, m) for m in chain.sets]}


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
