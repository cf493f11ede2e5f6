"""Seeded instance generator for the benchmark workloads.

`plan(workload, seed, workdir)` returns the instances and the job list of one
workload.  The same seed always gives the same plan.  The audit instances and
the planted-violation tables are also written to `workdir` as connsys
instance JSON, so they can be replayed with the command line, for example
`connsys validate <workdir>/planted-16.json`.

Run it alone to look at a plan:

    python3 perfbench/generate.py --workload scale --seed 0 --out perfbench/work/plan
"""

from __future__ import annotations

import argparse
import json
import os
import random

import numpy as np

import reference as ref

# The planted tables do not depend on the seed: the program must reject every
# one of them on every run, so the failed share of a run stays fixed.
PLANTED_SIZES = (16, 17, 18)

SCALE_EDGE_CUT_SIZES = (12, 13, 14, 15)  # edges of a dense graph on 7 vertices
SCALE_KEFF_TARGET = 1000  # largest k whose efficient-set count stays at or below this
# (vertices, edges).  Building the vertex cut at n = 20 took 7-13 s alone, so a
# run held only three set-ups; at n = 18 it holds about eight.
SCALE_VERTEX_CUT = ((16, 48), (18, 54))
# Widths jobs at n = 8, pairs of one edge-cut and one vertex-cut instance: about
# a third of a round.  A widths job at n = 9 alone would take two thirds.
SCALE_WIDTH_PAIRS = 2
# (n, pairs of one edge-cut and one vertex-cut instance): many tiny jobs, and
# enough at n = 7 and 8 that widths carry about a third of a round's time.
SMALL_WIDTHS = ((4, 4), (5, 4), (6, 4), (7, 12), (8, 1))
SMALL_ENUM_SIZES = (6, 7)
UFNUM_MAX_N = 6
AUDIT_ALL = 1  # n = 4 instances audited with --theorems all (about 1 s each)
AUDIT_SMALL = 12  # n = 5 instances audited with duality, dilworth and families
AUDIT_FAMILY_KEFF = 12  # the co-tangle audit scans 2^|keff| families


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def connected_graph(shape: random.Random, label: random.Random, vertices: int, edges: int) -> list[list[int]]:
    """A random connected simple graph, drawn by shape and relabelled by label.

    shape draws a random tree plus random extra edges; label permutes the
    vertices and shuffles the edge order, which decides the element order of
    an edge-cut system.
    """
    if not vertices - 1 <= edges <= vertices * (vertices - 1) // 2:
        raise ValueError(f"no connected simple graph with {vertices} vertices and {edges} edges")
    chosen = set()
    for v in range(1, vertices):
        chosen.add((shape.randrange(v), v))
    while len(chosen) < edges:
        u, v = shape.sample(range(vertices), 2)
        chosen.add((min(u, v), max(u, v)))
    perm = list(range(vertices))
    label.shuffle(perm)
    out = [sorted((perm[u], perm[v])) for u, v in sorted(chosen)]
    label.shuffle(out)
    return out


def edge_cut(name: str, shape: random.Random, label: random.Random, vertices: int, edges: int) -> dict:
    return {
        "name": name,
        "ground_set": labels("e", edges),
        "function": {
            "type": "graph_edge_cut",
            "vertices": vertices,
            "edges": connected_graph(shape, label, vertices, edges),
        },
    }


def vertex_cut(name: str, shape: random.Random, label: random.Random, vertices: int, edges: int) -> dict:
    return {
        "name": name,
        "ground_set": labels("v", vertices),
        "function": {
            "type": "graph_vertex_cut",
            "vertices": vertices,
            "edges": connected_graph(shape, label, vertices, edges),
        },
    }


def values_of(inst: dict) -> np.ndarray:
    """Reference cut values of a generated graph instance."""
    fn = inst["function"]
    n = len(inst["ground_set"])
    if fn["type"] == "graph_vertex_cut":
        return ref.vertex_cut_values(n, fn["edges"])
    return ref.edge_cut_values(n, fn["vertices"], fn["edges"])


def small_edge_cut(name: str, shape: random.Random, label: random.Random, n: int) -> dict:
    """An edge-cut system over n edges on a vertex count that admits a connected graph."""
    lo = next(v for v in range(2, n + 2) if v * (v - 1) // 2 >= n)
    return edge_cut(name, shape, label, shape.randint(lo, n + 1), n)


def small_vertex_cut(name: str, shape: random.Random, label: random.Random, n: int) -> dict:
    return vertex_cut(name, shape, label, n, shape.randint(n - 1, min(2 * n, n * (n - 1) // 2)))


def rngs(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    """The fixed graph-shape stream of a workload and the seeded labelling stream.

    Every seed sees the same graphs up to isomorphism, relabelled: the
    bitmask of every set, and so the order in which each search visits them,
    changes with the seed, while the amount of work stays close enough for
    runs on different seeds to be compared.
    """
    return random.Random(f"{workload}:shapes"), random.Random(f"{workload}:{seed}")


def write_instance(workdir: str, inst: dict) -> str:
    path = os.path.join(workdir, inst["name"] + ".json")
    body = {"ground_set": inst["ground_set"], "function": inst["function"]}
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path


# -------------------------------------------------------------------- planted


def planted_table(n: int) -> dict:
    """A symmetric table over n elements that breaks submodularity on one pair only.

    f(S) = |S| (n - |S|) + cut_G(S), where G joins every vertex of a random
    half A to every vertex outside A except one pair (a, b), plus random edges
    inside each half.  Both parts are symmetric and submodular, and a pair
    (C, D) has slack 2 |C-D| |D-C| + 2 e_G(C-D, D-C).  Lowering f(A) and
    f(X-A) by 3 therefore breaks only the pairs (A, A-a+b) and (X-A, X-A-b+a)
    and their reversals: 4 of the 4^n ordered pairs.
    """
    rng = random.Random(f"planted:{n}")
    half = rng.sample(range(n), n // 2)
    a_mask = sum(1 << i for i in half)
    inside = [i for i in range(n) if a_mask >> i & 1]
    outside = [i for i in range(n) if not a_mask >> i & 1]
    a, b = rng.choice(inside), rng.choice(outside)
    edges = [(u, v) for u in inside for v in outside if (u, v) != (a, b)]
    for part in (inside, outside):
        for u in part:
            for v in part:
                if u < v and rng.random() < 0.3:
                    edges.append((u, v))
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    card = np.zeros(size, dtype=np.int64)
    for i in range(n):
        card += masks >> i & 1
    values = card * (n - card) + ref.vertex_cut_values(n, edges)
    full = size - 1
    values[a_mask] -= 3
    values[full ^ a_mask] -= 3
    other = (a_mask & ~(1 << a)) | (1 << b)
    if not ref.violates_submodularity(values, a_mask, other):
        raise RuntimeError("the planted pair does not violate submodularity")
    return {"n": n, "values": values, "witness": (a_mask, other)}


def write_planted(workdir: str, n: int, table: dict) -> dict:
    """Write the table as connsys instance JSON; sets holding the last element come by symmetry."""
    labs = [chr(ord("a") + i) for i in range(n)]
    half = 1 << (n - 1)
    vals = table["values"].tolist()
    keys = [""] * half
    for mask in range(1, half):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        keys[mask] = keys[rest] + "," + labs[top] if rest else labs[top]
    entries = dict(zip(keys, vals[:half]))
    inst = {
        "name": f"planted-{n}",
        "ground_set": labs,
        "function": {"type": "table", "values": entries},
    }
    path = write_instance(workdir, inst)
    return {"name": inst["name"], "path": path, "n": n, "witness": list(table["witness"])}


# ------------------------------------------------------------------ workloads


def largest_k(values: np.ndarray, limit: int) -> int:
    """The largest k with at most limit sets of value <= k (at least k = 0)."""
    counts = np.bincount(values)
    total = np.cumsum(counts)
    fits = np.nonzero(total <= limit)[0]
    return int(fits[-1]) if fits.size else 0


def principal_filter_base(rng: random.Random, values: np.ndarray, n: int, k: int) -> int:
    """A random non-empty efficient set of at most n // 3 elements, as the base of a filter."""
    masks = np.arange(values.size, dtype=np.int64)
    sizes = np.zeros(values.size, dtype=np.int64)
    for i in range(n):
        sizes += masks >> i & 1
    pool = masks[(values <= k) & (sizes >= 1) & (sizes <= max(1, n // 3))]
    return int(pool[rng.randrange(pool.size)])


def subbase(rng: random.Random, values: np.ndarray, n: int, k: int, count: int = 3) -> list[int]:
    """count efficient sets sharing a random element, drawn until they generate a filter.

    Sets through one element never meet in the empty set, but their
    efficient intersections may escape the generated sets; such draws are
    redrawn so that every plan checks the same number of families.  A single
    set always generates its up-closure.
    """
    masks = np.arange(values.size, dtype=np.int64)
    for _ in range(50):
        e = rng.randrange(n)
        pool = masks[(values <= k) & ((masks >> e & 1) == 1) & (masks != values.size - 1)]
        picks = sorted(int(pool[i]) for i in rng.sample(range(pool.size), min(count, pool.size)))
        if ref.generated_filter(values, n, picks, k)[0] == "ok":
            return picks
    return picks[:1]


def checked(jobs: list, spec: dict, kind: str) -> None:
    """Append a job and a check_family job on its result."""
    jobs.append(spec)
    jobs.append({"op": "check", "source": len(jobs) - 1, "kind": kind})


def add_large(plan: dict, shape: random.Random, rng: random.Random, workdir: str) -> None:
    """Dense edge cuts at n = 12..15, vertex cuts at n = 16 and 18, and the planted tables."""
    instances, jobs = plan["instances"], plan["jobs"]
    for m in SCALE_EDGE_CUT_SIZES:
        inst = edge_cut(f"ec{m}", shape, rng, 7, m)
        instances.append(inst)
        vals = values_of(inst)
        k = largest_k(vals, SCALE_KEFF_TARGET)
        name = inst["name"]
        jobs.append({"op": "keff", "instance": name, "k": k})
        checked(jobs, {"op": "construct", "instance": name, "k": k}, "ultrafilter")
        base = principal_filter_base(rng, vals, m, k)
        checked(jobs, {"op": "extend", "instance": name, "k": k, "base": base}, "ultrafilter")
        checked(jobs, {"op": "generate", "instance": name, "k": k, "subbase": subbase(rng, vals, m, k)}, "filter")
        jobs.append({"op": "sequence_chain", "instance": name, "k": k})
    for n, m in SCALE_VERTEX_CUT:
        inst = vertex_cut(f"vc{n}", shape, rng, n, m)
        instances.append(inst)
        vals = values_of(inst)
        k = largest_k(vals, 1200 if n <= 16 else 600)
        top = int(vals.max())
        name = inst["name"]
        jobs.append({"op": "keff", "instance": name, "k": k})
        jobs.append({"op": "keff", "instance": name, "k": top // 2})
        checked(jobs, {"op": "construct", "instance": name, "k": k}, "ultrafilter")
        jobs.append({"op": "sequence_chain", "instance": name, "k": top // 3})
        jobs.append({"op": "sequence_chain", "instance": name, "k": top // 2})
    for n in PLANTED_SIZES:
        table = planted_table(n)
        entry = write_planted(workdir, n, table)
        plan["planted"].append(entry)
        jobs.append({"op": "planted", "instance": entry["name"]})


def add_widths(plan: dict, shape: random.Random, rng: random.Random, sizes, per_size: int) -> None:
    """One widths job per instance: per_size edge-cut and vertex-cut instances at each size."""
    for n in sizes:
        for i in range(per_size):
            for inst in (small_edge_cut(f"w{n}e{i}", shape, rng, n), small_vertex_cut(f"w{n}v{i}", shape, rng, n)):
                plan["instances"].append(inst)
                plan["jobs"].append({"op": "widths", "instance": inst["name"]})


def add_enumerate(plan: dict, shape: random.Random, rng: random.Random, sizes, per_size: int) -> None:
    """Full and limit=1 enumeration of every kind at every k; ultrafilter numbers at small n."""
    jobs = plan["jobs"]
    for n in sizes:
        for i in range(per_size):
            for inst in (small_edge_cut(f"n{n}e{i}", shape, rng, n), small_vertex_cut(f"n{n}v{i}", shape, rng, n)):
                plan["instances"].append(inst)
                top = int(values_of(inst).max())
                name = inst["name"]
                for kind in ("ultrafilter", "tangle", "single_ultrafilter"):
                    for k in range(top + 1):
                        jobs.append({"op": "enumerate", "instance": name, "kind": kind, "k": k})
                        full = len(jobs) - 1
                        jobs.append({"op": "enumerate_first", "instance": name, "kind": kind, "k": k, "source": full})
                        if kind == "ultrafilter" and n <= UFNUM_MAX_N:
                            jobs.append({"op": "ultrafilter_number", "instance": name, "k": k})


def add_audits(plan: dict, shape: random.Random, rng: random.Random, workdir: str) -> None:
    """Command-line audits of instance files at n = 4 (all theorems) and n = 5."""
    jobs = plan["jobs"]
    for i in range(AUDIT_ALL):
        make = small_edge_cut if i % 2 == 0 else small_vertex_cut
        inst = make(f"a4-{i}", shape, rng, 4)
        top = int(values_of(inst).max())
        inst["path"] = write_instance(workdir, inst)
        plan["instances"].append(inst)
        jobs.append({"op": "audit", "instance": inst["name"], "theorems": "all", "k_range": [0, top]})
    for i in range(AUDIT_SMALL):
        make = small_edge_cut if i % 2 == 0 else small_vertex_cut
        inst = make(f"a5-{i}", shape, rng, 5)
        vals = values_of(inst)
        top = int(vals.max())
        inst["path"] = write_instance(workdir, inst)
        plan["instances"].append(inst)
        name = inst["name"]
        jobs.append({"op": "audit", "instance": name, "theorems": "duality", "k_range": [0, top]})
        jobs.append({"op": "audit", "instance": name, "theorems": "dilworth", "k_range": [0, top]})
        fam_top = largest_k(vals, AUDIT_FAMILY_KEFF)
        jobs.append({"op": "audit", "instance": name, "theorems": "families", "k_range": [0, fam_top]})


def plan_scale(seed: int, workdir: str) -> dict:
    """The largest instance of every layer: where better algorithms should show."""
    shape, rng = rngs("scale", seed)
    plan = {"instances": [], "jobs": [], "planted": []}
    add_large(plan, shape, rng, workdir)
    add_widths(plan, shape, rng, (8,), SCALE_WIDTH_PAIRS)
    add_enumerate(plan, shape, rng, (8,), 1)
    return plan


def plan_small(seed: int, workdir: str) -> dict:
    """Many small instances through the library and the command line: where fixed costs show."""
    shape, rng = rngs("small", seed)
    plan = {"instances": [], "jobs": [], "planted": []}
    for n, pairs in SMALL_WIDTHS:
        add_widths(plan, shape, rng, (n,), pairs)
    add_enumerate(plan, shape, rng, SMALL_ENUM_SIZES, 3)
    add_audits(plan, shape, rng, workdir)
    return plan


PLANNERS = {"scale": plan_scale, "small": plan_small}


def plan(workload: str, seed: int, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    return PLANNERS[workload](seed, workdir)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(PLANNERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the instance files and plan.json")
    args = p.parse_args()
    result = plan(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "plan.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"{len(result['instances'])} instances, {len(result['jobs'])} jobs -> {args.out}")


if __name__ == "__main__":
    main()
