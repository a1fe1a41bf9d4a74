"""Workload definitions: seeded inputs, CLI job lines and output checks.

Every input edge list is generated here with the benchmark's own numpy code,
never with graphonsp's samplers or writers, so that a change to the
library's random streams cannot shift another workload's inputs.  Each
check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Smoke inputs (used by every set-up probe and by the self-test) do not
# depend on the workload seed, so every run times the same set-up job.
SMOKE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict            # sizes of the timed jobs
    smoke: dict           # sizes of the set-up probe and self-test jobs
    pool: int             # distinct job inputs generated per run
    traced_jobs: int      # fixed job count of a traced run, so counts repeat


WORKLOADS = {w.name: w for w in (
    Workload(
        "sample-r1e",
        "the only workload that samples and writes graphs: sampler probes, "
        "the edge-list writer and the union-grid cut of the subsequence pick",
        full={"t_schedule": [4, 8, 16], "n_schedule": [1000, 2000, 4000],
              "resolution": 256},
        smoke={"t_schedule": [4, 8, 16], "n_schedule": [50, 100, 200],
               "resolution": 64},
        pool=1, traced_jobs=2),
    Workload(
        "cutdist-sparse",
        "the paper's sparse clique-core benchmark with a known bound, "
        "dominated by the O(n^2) canonical embedding and union-grid cut",
        full={"n": 3000, "alpha": 0.5},
        smoke={"n": 300, "alpha": 0.5},
        pool=8, traced_jobs=3),
    Workload(
        "cutdist-exact",
        "the exact cut-norm path: subset enumeration and local-search "
        "relabeling on tiny grids with no IO or embedding cost",
        # Pairs of two-block graphs: local search has to recover the blocks,
        # so its first pass nearly always improves and it runs both passes
        # (184 exact cut norms at k=14).  Pairs of uniform graphs would stop
        # after one pass about one time in four and make job times bimodal.
        full={"n": 14, "m_in": 38, "m_out": 7},
        smoke={"n": 8, "m_in": 10, "m_out": 4},
        pool=32, traced_jobs=10),
    Workload(
        "diagnostics",
        "the only workload on spectral and filterfit: eigensolves along "
        "growing subgraphs and filter fits, with no cut-metric work",
        full={"n": 16000, "t": 24.0, "growth_batch": 1000},
        smoke={"n": 4000, "t": 24.0, "growth_batch": 250},
        pool=4, traced_jobs=2),
)}


def job(job_id: str, argvs: list, outs: list, meta=None) -> dict:
    """One closed-loop job: CLI lines run back to back, then checked."""
    return {"id": job_id, "argvs": argvs, "outs": outs, "meta": meta or {}}


# ---------------------------------------------------------------------------
# input generation (benchmark-owned)
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_edges(path: Path, n: int, edges: np.ndarray) -> dict:
    """Write the ``n <count>`` header and one ``i j`` line per edge."""
    text = f"n {n}\n" + "".join(f"{i} {j}\n" for i, j in edges.tolist())
    path.write_text(text, encoding="utf-8")
    return {"file": path.name, "n": n, "edges": int(edges.shape[0]),
            "sha256": sha256_file(path)}


def clique_core(rng, n: int, alpha: float):
    """Clique on ``floor(n^((1+alpha)/2))`` vertices with shuffled labels."""
    k = int(math.floor(n ** ((1.0 + alpha) / 2.0)))
    iu = np.triu_indices(k, 1)
    labels = rng.permutation(n)
    a, b = labels[iu[0]], labels[iu[1]]
    return np.column_stack([np.minimum(a, b), np.maximum(a, b)]), k


def two_block(rng, n: int, m_in: int, m_out: int) -> np.ndarray:
    """Graph with ``m_in`` edges inside and ``m_out`` edges across two blocks
    of ``n // 2`` and ``n - n // 2`` vertices, vertex labels shuffled.

    Degrees are nearly equal, so sorting by degree does not reveal the
    blocks; every graph has ``m_in + m_out`` edges."""
    iu = np.triu_indices(n, 1)
    half = n // 2
    inside = (iu[0] < half) == (iu[1] < half)
    pick = np.concatenate([
        rng.choice(np.flatnonzero(inside), size=m_in, replace=False),
        rng.choice(np.flatnonzero(~inside), size=m_out, replace=False)])
    labels = rng.permutation(n)
    a, b = labels[iu[0][pick]], labels[iu[1][pick]]
    edges = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def rank_one_exp(rng, n: int, t: float, width: float = 0.5) -> np.ndarray:
    """Exact sample of ``W(x, y) = exp(-x - y)`` at ``n`` jittered points on
    ``[0, t]``, by thinning per pair of ``width``-wide bins.

    Point ``i`` is uniform on the ``i``-th of ``n`` equal strata.  Uniform
    points would make the edge count vary by about 5% between seeds, and the
    job time with it; stratified points keep it within about 0.5%.  Within a
    bin pair every probability is at most the bin pair's largest, ``q``; a
    binomial number of distinct candidate pairs is drawn at rate ``q`` and
    each is kept with probability ``p / q``.
    """
    x = (np.arange(n) + rng.random(n)) * (t / n)
    cuts = np.searchsorted(x, np.arange(0.0, t + width, width))
    bins = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    edges = []
    for a, (alo, ahi) in enumerate(bins):
        for blo, bhi in bins[a:]:
            sa, sb = ahi - alo, bhi - blo
            same = alo == blo
            npairs = sa * (sa - 1) // 2 if same else sa * sb
            q = math.exp(-x[alo] - x[blo])
            k = int(rng.binomial(npairs, q)) if npairs else 0
            if k == 0:
                continue
            idx = rng.choice(npairs, size=k, replace=False)
            if same:
                # idx enumerates pairs j < i of the block in row-major order
                i = np.floor((1.0 + np.sqrt(1.0 + 8.0 * idx)) / 2.0).astype(np.int64)
                i -= i * (i - 1) // 2 > idx
                i += (i + 1) * i // 2 <= idx
                lo, hi = alo + idx - i * (i - 1) // 2, alo + i
            else:
                lo, hi = alo + idx // sb, blo + idx % sb
            keep = rng.random(k) < np.exp(-x[lo] - x[hi]) / q
            edges.append(np.column_stack([lo[keep], hi[keep]]))
    return np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)


def job_seed(seed: int, k: int) -> int:
    return 1_000_003 * seed + k


def prepare(name: str, scale: str, seed: int, root: Path):
    """Write the inputs of one run under ``root``.

    Returns ``(records, make_job)``: one record (file, n, edges, sha256) per
    input, and ``make_job(k, out_dir)`` giving the ``k``-th job, which cycles
    over the input pool.
    """
    wl = WORKLOADS[name]
    size = getattr(wl, scale)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    pool = wl.pool if scale == "full" else 1
    records = []

    if name == "sample-r1e":
        cfg = root / "sample.json"
        cfg.write_text(json.dumps(dict(size, graphon_family="rank_one_exp",
                                       graphon_c=1.0, graphon_lam=1.0)))

        def make_job(k, out):
            return job(f"{name}/{k}", [["sample", "--config", str(cfg), "--seed",
                                        str(job_seed(seed, k)), "--out", str(out)]],
                       [str(out)])

    elif name == "cutdist-sparse":
        cfg = root / "cutdist.json"
        cfg.write_text(json.dumps({"cut_mode": "degree_sort", "cut_restarts": 64}))
        cores = []
        for p in range(pool):
            edges, k = clique_core(rng, size["n"], size["alpha"])
            records.append(write_edges(root / f"sparse{p}.txt", size["n"], edges))
            cores.append(k)

        def make_job(k, out):
            p = k % pool
            return job(f"{name}/{k}", [["cutdist", str(root / f"sparse{p}.txt"),
                                        "celebrity", "--config", str(cfg),
                                        "--seed", str(job_seed(seed, k)),
                                        "--out", str(out)]],
                       [str(out)], {"core": cores[p]})

    elif name == "cutdist-exact":
        for p in range(pool):
            for side in "ab":
                records.append(write_edges(root / f"exact{p}{side}.txt", size["n"],
                                           two_block(rng, size["n"], size["m_in"],
                                                     size["m_out"])))

        def make_job(k, out):
            a, b = (str(root / f"exact{k % pool}{s}.txt") for s in "ab")
            return job(f"{name}/{k}", [["cutdist", a, b, "--mode", "local_search",
                                        "--seed", str(job_seed(seed, k)),
                                        "--out", str(out)]],
                       [str(out)], {"a": a, "b": b})

    elif name == "diagnostics":
        cfg = root / "spectra.json"
        cfg.write_text(json.dumps({"growth_batch": size["growth_batch"],
                                   "growth_steps": 10,
                                   "t_set": [-3, -2, -1, 1, 2, 3]}))
        for p in range(pool):
            records.append(write_edges(root / f"r1e{p}.txt", size["n"],
                                       rank_one_exp(rng, size["n"], size["t"])))

        def make_job(k, out):
            src = str(root / f"r1e{k % pool}.txt")
            s = str(job_seed(seed, k))
            outs = [str(Path(out) / "spectra"), str(Path(out) / "fit-filter")]
            return job(f"{name}/{k}",
                       [["spectra", src, "--config", str(cfg), "--seed", s,
                         "--out", outs[0]],
                        ["fit-filter", src, "--seed", s, "--out", outs[1]]],
                       outs)

    else:
        raise KeyError(name)
    return records, make_job


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_edges(path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2).reshape(-1, 2)
    return int(head[1]), edges


def check_manifest(out: Path) -> list:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{out.name}: no readable manifest ({exc})"]
    if not manifest.get("files"):
        return [f"{out.name}: manifest lists no files"]
    return [f"{out.name}/{fn}: hash mismatch"
            for fn, digest in sorted(manifest["files"].items())
            if not (out / fn).is_file() or sha256_file(out / fn) != digest]


def _check_sample(outs, meta) -> list:
    out = Path(outs[0])
    problems = []
    dens = _read_csv(out / "densities.csv")
    if len(dens) != 9:
        problems.append(f"densities.csv has {len(dens)} rows, expected 9")
    for row in dens:
        f = out / f"edges_m{row['m_index']}_n{row['n']}.txt"
        lines = f.read_bytes().count(b"\n") - 1 if f.is_file() else -1
        if lines != int(row["edges"]):
            problems.append(f"{f.name}: {lines} edge lines, densities.csv says {row['edges']}")
    sub = _read_csv(out / "subsequence.csv")
    if not sub:
        problems.append("subsequence.csv has no rows")
    for row in sub:
        tol = 1.0 / int(row["m"])
        if abs(float(row["pair_density"]) - float(row["density_limit"])) > tol:
            problems.append(f"subsequence m={row['m']}: density off by more than 1/m")
        if not float(row["stretched_distance"]) <= tol:
            problems.append(f"subsequence m={row['m']}: distance above 1/m")
    return problems


def _check_sparse(outs, meta) -> list:
    res = json.loads((Path(outs[0]) / "cutdist.json").read_text())
    bound = 2.0 / (meta["core"] - 1)
    if not res["distance"] <= bound:
        return [f"distance {res['distance']!r} exceeds 2/(k-1) = {bound!r}"]
    return []


def _check_exact(outs, meta) -> list:
    res = json.loads((Path(outs[0]) / "cutdist.json").read_text())
    if res["exact"] is not True:
        return ["exact is not true"]
    n, ea = _read_edges(meta["a"])
    _, eb = _read_edges(meta["b"])
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    A[ea[:, 0], ea[:, 1]] = A[ea[:, 1], ea[:, 0]] = 1.0
    B[eb[:, 0], eb[:, 1]] = B[eb[:, 1], eb[:, 0]] = 1.0
    perm = np.asarray(res["permutation"])
    diff = A[np.ix_(perm, perm)] - B
    value = abs(diff[np.ix_(res["witness_rows"], res["witness_cols"])].sum()) / (2 * len(ea))
    if not math.isclose(value, res["cut_value"], rel_tol=1e-12, abs_tol=0.0):
        return [f"cut_value {res['cut_value']!r} but the witnesses give {value!r}"]
    return []


def _check_diagnostics(outs, meta) -> list:
    spectra, fit = Path(outs[0]), Path(outs[1])
    problems = []
    fits = json.loads((spectra / "fits.json").read_text())["1"]
    # Only the level (graphing) model is ranked.  Under uniform vertex
    # batches |V| and sqrt(2|E|) stay nearly proportional over the tail, so
    # whether the classical or the generalized fit has the smaller MSE is
    # decided by sampling noise; the limit check below tests the scaling.
    if not fits["generalized"]["mse"] < fits["graphing"]["mse"]:
        problems.append("t=1: the generalized fit does not beat the level (graphing) fit")
    traj = _read_csv(spectra / "trajectory.csv")
    last = max(int(r["n_index"]) for r in traj)
    # lambda_1 / sqrt(2|E|) -> ||g||_2^2 / ||g||_1 = 1/2 for g(x) = exp(-x)
    (row,) = [r for r in traj if int(r["n_index"]) == last and int(r["t"]) == 1]
    if abs(float(row["scaled_generalized"]) - 0.5) > 0.05:
        problems.append(f"last t=1 scaled_generalized {row['scaled_generalized']} not within 0.05 of 0.5")
    gaps = json.loads((fit / "ratio_summary.json").read_text())["gaps"]
    if gaps:
        problems.append(f"ratio_summary.json has {len(gaps)} gaps")
    return problems


_CHECKS = {
    "sample-r1e": _check_sample,
    "cutdist-sparse": _check_sparse,
    "cutdist-exact": _check_exact,
    "diagnostics": _check_diagnostics,
}


def check(name: str, outs, meta) -> list:
    """Every problem found in one job's outputs."""
    problems = []
    for out in outs:
        problems += check_manifest(Path(out))
    if problems:
        return problems
    try:
        return _CHECKS[name](outs, meta)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
