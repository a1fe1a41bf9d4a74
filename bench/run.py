"""graphonsp benchmark: whole CLI jobs, timed end to end, traced per layer.

Run from the repository root:

    python3 bench/run.py --workload cutdist-sparse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics.  It times a cold
``import graphonsp.cli`` plus a smoke-size job in several fresh processes
(``setup_s``).  It then runs full-size jobs in one fresh worker process,
back to back, for ``--seconds`` seconds.  ``--trace 1`` runs a fixed set of
jobs twice, untraced and then with every layer wrapped, and reports the
per-layer metrics.  Every job's outputs are checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"
DEADLINE_S = 170.0          # a run of one workload must end within 180 s
SETUP_PROCESSES = 5         # cold processes timed per run for setup_s
MIN_JOBS = 3                # timed jobs per run, whatever --seconds says
# BLAS threads of the worker: one per CPU this process may run on
BLAS_THREADS = len(os.sched_getaffinity(0))

# (name, unit, better, bound); bounds are shares of the parent's median
END_TO_END = [
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# per job, averaged over the traced jobs of a run; 0 where the workload
# never calls the layer
PER_LAYER = [
    ("sampling.sample_graph.self_s", "s", "lower"),
    ("sampling.sample_graph.pairs_probed", "count", "lower"),
    ("sampling.sample_graph.edges_drawn", "count", "higher"),
    ("sampling.sample_graph.hit_ratio", "ratio", "higher"),
    ("sampling.extract_sparse_subsequence.self_s", "s", "lower"),
    ("sampling.grow_subgraphs.self_s", "s", "lower"),
    ("core.write_edge_list.self_s", "s", "lower"),
    ("core.read_edge_list.self_s", "s", "lower"),
    ("core.canonical_graphon.self_s", "s", "lower"),
    ("core.common_grid.self_s", "s", "lower"),
    ("core.stretch.self_s", "s", "lower"),
    ("core.Graph.induced_subgraph.self_s", "s", "lower"),
    ("core.Graph.induced_subgraph.calls", "count", "lower"),
    ("cutmetric.stretched_cut_distance.self_s", "s", "lower"),
    ("cutmetric.stretched_cut_distance.calls", "count", "lower"),
    ("cutmetric.cut_distance_steps.self_s", "s", "lower"),
    ("cutmetric.cut_norm.self_s", "s", "lower"),
    ("cutmetric.cut_norm.calls", "count", "lower"),
    ("spectral.eigensolve.self_s", "s", "lower"),
    ("spectral.eigensolve.calls", "count", "lower"),
    ("spectral.eigensolve.iterative_calls", "count", "lower"),
    ("spectral.trajectory.self_s", "s", "lower"),
    ("filterfit.fit_filter.self_s", "s", "lower"),
    ("filterfit.fit_filter.calls", "count", "lower"),
    ("filterfit.synthesize_diffusion.self_s", "s", "lower"),
    ("filterfit.coefficient_trajectory.self_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS] + [
    ("trace_overhead", "ratio", "lower"),
]


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(spec: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    spec = dict(spec, result=str(run_dir / f"{tag}.result.json"))
    spec_path = run_dir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                   cwd=ROOT, env=worker_env(), stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(Path(spec["result"]).read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float, scale: str = "full", log=print) -> dict:
    """One run of one workload; returns metrics, attempted and failed."""
    wl = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        records, make_job = workloads.prepare(name, scale, seed, run_dir / "in")
        _, make_smoke = workloads.prepare(name, "smoke", workloads.SMOKE_SEED,
                                          run_dir / "smoke-in")
        for rec in records:
            log(f"input {name}/{rec['file']} n={rec['n']} edges={rec['edges']} "
                f"sha256={rec['sha256']}")
        out = run_dir / "out"
        base = {"workload": name, "src": str(ROOT / "src"),
                "smoke": make_smoke(0, out / "smoke"),
                "warmup": make_job(0, out / "warmup"),
                "seconds": seconds, "min_jobs": MIN_JOBS, "trace": False}
        if trace:
            jobs = [make_job(k, out / f"job{k}")
                    for k in range(1, 1 + wl.traced_jobs)]
            plain = run_worker(dict(base, mode="fixed", jobs=jobs), run_dir, "plain", deadline)
            traced = run_worker(dict(base, mode="fixed", jobs=jobs, trace=True),
                                run_dir, "traced", deadline)
            results = [plain, traced]
            metrics = layer_metrics(plain, traced)
            spans = WORK / "traces" / f"{name}-s{seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps({"spans": traced["spans"],
                                         "counts": traced["counts"]}))
            notes = {"trace_overhead": f"median traced / untraced job time, {len(jobs)} "
                                       f"jobs each; other values are per-job means; "
                                       f"spans in {spans.relative_to(ROOT)}"}
        else:
            probes = [run_worker(dict(base, mode="probe", jobs=[]), run_dir,
                                 f"probe{i}", deadline)
                      for i in range(SETUP_PROCESSES - 1)]
            # ample jobs for the closed loop; --seconds decides how many run
            jobs = [make_job(k, out / f"job{k}") for k in range(1, 5000)]
            main = run_worker(dict(base, mode="loop", jobs=jobs), run_dir, "main", deadline)
            results = probes + [main]
            times = [j["seconds"] for j in main["jobs"]]
            passed = sum(not j["problems"] for j in main["jobs"])
            metrics = {
                "jobs_per_s": passed / sum(times),
                "job_p50_s": statistics.median(times),
                "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
                "setup_s": statistics.median(r["setup_s"] for r in results),
            }
            notes = {
                "jobs_per_s": f"{passed} passed jobs in {sum(times):.2f} s of job time",
                "job_p50_s": f"median of {len(times)} jobs; the untimed warm-up job "
                             f"took {main['warmup_s']:.3f} s",
                "setup_s": f"median of {len(results)} cold processes; import alone "
                           f"{statistics.median(r['import_s'] for r in results):.3f} s",
            }
        checked = [j for r in results for j in r["untimed"] + r["jobs"]]
        failed = [j for j in checked if j["problems"]]
        for j in failed:
            log(f"FAILED {j['id']}: {'; '.join(j['problems'])}")
        return {"metrics": metrics, "notes": notes, "attempted": len(checked),
                "failed": len(failed)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-job means over the traced jobs, plus the tracing overhead."""
    jobs = len(traced["jobs"])
    own = tracing.self_times(traced["spans"])
    values = {f"{span}.self_s": v / jobs for span, v in own.items()}
    values.update({k: v / jobs for k, v in traced["counts"].items()})
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for span, v in own.items() if span.split(".")[0] == layer) / jobs
    pairs = values.get("sampling.sample_graph.pairs_probed", 0)
    values["sampling.sample_graph.hit_ratio"] = (
        values.get("sampling.sample_graph.edges_drawn", 0) / pairs if pairs else 0.0)
    values["trace_overhead"] = (
        statistics.median(j["seconds"] for j in traced["jobs"])
        / statistics.median(j["seconds"] for j in plain["jobs"]))
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}


def report(name: str, res: dict, units: dict, log=print) -> None:
    for metric, value in res["metrics"].items():
        log(f"{name:15s} {metric:44s} {value:14.6g} {units[metric]:6s} "
            f"{res['notes'].get(metric, '')}")
    rate = res["failed"] / res["attempted"]
    log(f"{name:15s} {'error_rate':44s} {rate:14.6g} ratio "
        f"({res['failed']} of {res['attempted']} checked jobs failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    if not (ROOT / "src" / "graphonsp" / "cli.py").is_file():
        sys.stderr.write(f"no graphonsp sources under {ROOT / 'src'}\n")
        return 2

    print("host " + json.dumps(host(), sort_keys=True))
    units = {m[0]: m[1] for m in (PER_LAYER if args.trace else END_TO_END)}
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), deadline)
        report(name, results[name], units)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split("/")[-1]]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
