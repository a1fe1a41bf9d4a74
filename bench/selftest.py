"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

1. ``BENCHMARK.json`` lists exactly the workloads and metrics the code
   reports.
2. Every workload runs at smoke size, untraced and traced, with no failed
   job; the traced counts repeat exactly and each workload reaches the
   layers it is meant to measure.
3. Every output check passes on a real job and rejects a deliberately
   corrupted copy of it, and a job whose command fails is reported as
   failed, so ``error_rate`` cannot stay at zero unnoticed.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import run
import workloads
import worker

# a metric each workload must report as nonzero when traced
REACHES = {
    "sample-r1e": ["sampling.sample_graph.pairs_probed", "core.write_edge_list.self_s",
                   "cutmetric.stretched_cut_distance.calls"],
    "cutdist-sparse": ["core.canonical_graphon.self_s", "core.stretch.self_s",
                       "core.common_grid.self_s", "cutmetric.stretched_cut_distance.calls"],
    "cutdist-exact": ["cutmetric.cut_norm.calls", "cutmetric.cut_distance_steps.self_s"],
    "diagnostics": ["spectral.eigensolve.calls", "core.Graph.induced_subgraph.calls",
                    "filterfit.fit_filter.calls", "sampling.grow_subgraphs.self_s"],
}
COUNT_STATS = ("calls", "iterative_calls", "pairs_probed", "edges_drawn")


def rewrite(out: Path, name: str, edit) -> None:
    """Apply ``edit`` to a file's text and re-hash it in the manifest, so
    that only the workload's own check can catch the change."""
    path = out / name
    path.write_text(edit(path.read_text()))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"][name] = workloads.sha256_file(path)
    (out / "manifest.json").write_text(json.dumps(manifest))


def edit_json(change):
    def edit(text):
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return edit


def edit_csv_cell(pick, column, value):
    """Set ``column`` of the data rows selected by ``pick(rows)`` (indices)."""
    def edit(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for i in pick([dict(zip(header, r)) for r in rows]):
            rows[i][header.index(column)] = value
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    return edit


def last_t1(rows):
    last = max(int(r["n_index"]) for r in rows)
    return [i for i, r in enumerate(rows) if int(r["n_index"]) == last and r["t"] == "1"]


def drop_last_line(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _first_edges(outs):
    return sorted(p.name for p in Path(outs[0]).glob("edges_m0_*.txt"))[0]


# (description, index of the output directory, file name or callable giving
# it from the outputs, edit)
CORRUPTIONS = {
    "sample-r1e": [
        ("edge file one line short", 0, _first_edges, drop_last_line),
        ("densities.csv row missing", 0, "densities.csv", drop_last_line),
        ("subsequence distance above 1/m", 0, "subsequence.csv",
         edit_csv_cell(lambda rows: [0], "stretched_distance", "2.0")),
        ("subsequence density off by more than 1/m", 0, "subsequence.csv",
         edit_csv_cell(lambda rows: [0], "pair_density", "5.0")),
        ("subsequence empty", 0, "subsequence.csv", lambda t: t.splitlines()[0] + "\n"),
    ],
    "cutdist-sparse": [
        ("distance above 2/(k-1)", 0, "cutdist.json",
         edit_json(lambda r: r.update(distance=0.5))),
    ],
    "cutdist-exact": [
        ("exact flag false", 0, "cutdist.json", edit_json(lambda r: r.update(exact=False))),
        ("cut value off by 1e-9", 0, "cutdist.json",
         edit_json(lambda r: r.update(cut_value=r["cut_value"] * (1 + 1e-9)))),
        ("witness row dropped", 0, "cutdist.json",
         edit_json(lambda r: r.update(witness_rows=r["witness_rows"][1:]))),
    ],
    "diagnostics": [
        ("level fit beats the generalized fit", 0, "fits.json",
         edit_json(lambda f: f["1"]["graphing"].update(mse=0.0))),
        ("last t=1 scaled value far from 1/2", 0, "trajectory.csv",
         edit_csv_cell(last_t1, "scaled_generalized", "0.6")),
        ("a gap in ratio_summary.json", 1, "ratio_summary.json",
         edit_json(lambda s: s["gaps"].append({"k": 0, "reason": "x"}))),
    ],
}


def check_benchmark_json(problems) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_workloads = [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    want_e2e = [dict(zip(("name", "unit", "better", "bound"), m)) for m in run.END_TO_END]
    want_layer = [dict(zip(("name", "unit", "better"), m)) for m in run.PER_LAYER]
    for key, want in (("workloads", want_workloads), ("end_to_end", want_e2e),
                      ("per_layer", want_layer)):
        if spec[key] != want:
            problems.append(f"BENCHMARK.json {key} differs from the code")


def check_runs(name, problems) -> None:
    quiet = lambda line: None  # noqa: E731
    deadline = time.monotonic() + run.DEADLINE_S
    seed = workloads.SMOKE_SEED
    plain = run.run_workload(name, seed, 1.0, False, deadline, "smoke", quiet)
    traced = [run.run_workload(name, seed, 1.0, True, deadline, "smoke", quiet)
              for _ in range(2)]
    for res in [plain] + traced:
        if res["failed"]:
            problems.append(f"{name}: {res['failed']} of {res['attempted']} smoke jobs failed")
    a, b = (t["metrics"] for t in traced)
    for metric in a:
        if metric.rpartition(".")[2] in COUNT_STATS and a[metric] != b[metric]:
            problems.append(f"{name}: {metric} differs between traced runs")
    for metric in REACHES[name]:
        if not a[metric] > 0:
            problems.append(f"{name}: traced run never reached {metric}")


def check_corruptions(name, scratch, problems) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import graphonsp.cli as cli

    _, make_job = workloads.prepare(name, "smoke", workloads.SMOKE_SEED, scratch / "in")
    job = make_job(0, scratch / "real")
    seconds, error = worker.run_job(cli.main, job)
    found = [error] if error else workloads.check(name, job["outs"], job["meta"])
    if found:
        problems.append(f"{name}: real smoke job rejected: {found}")
        return

    def corrupted(tag, idx, filename, edit):
        outs = [str(scratch / tag / Path(o).name) for o in job["outs"]]
        for src, dst in zip(job["outs"], outs):
            shutil.copytree(src, dst)
        target = Path(outs[idx])
        if callable(filename):
            filename = filename(outs)
        if edit is None:   # change bytes without re-hashing
            with (target / filename).open("a") as fh:
                fh.write(" ")
        else:
            rewrite(target, filename, edit)
        return outs

    cases = [("manifest hash mismatch", 0, "config.json", None)] + CORRUPTIONS[name]
    for i, (what, idx, filename, edit) in enumerate(cases):
        outs = corrupted(f"bad{i}", idx, filename, edit)
        if not workloads.check(name, outs, job["meta"]):
            problems.append(f"{name}: check accepted a corrupted output ({what})")


def main() -> int:
    problems = []
    check_benchmark_json(problems)
    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            check_runs(name, problems)
            check_corruptions(name, scratch / name, problems)
            print(f"{name}: checked", flush=True)
        import graphonsp.cli as cli

        failing = {"argvs": [["cutdist", str(scratch / "missing.txt"), "celebrity",
                              "--out", str(scratch / "fail")]]}
        if worker.run_job(cli.main, failing)[1] is None:
            problems.append("a nonzero exit code was not reported as a failure")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
