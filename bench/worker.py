"""One benchmark worker process: ``python3 worker.py <spec.json>``.

The worker times a cold ``import graphonsp.cli`` plus one smoke-size job
(set-up), then runs jobs in-process through ``graphonsp.cli.main(argv)``,
one after another (a closed loop with one client), and checks each job's
outputs outside the timed region.  Only the standard library is imported
before the set-up is timed.

Spec keys: ``workload``, ``src`` (directory holding the ``graphonsp``
package), ``smoke`` and ``warmup`` (jobs), ``jobs`` (list of jobs),
``mode`` (``probe``: set-up only; ``loop``: run jobs until ``seconds``
would be exceeded, at least ``min_jobs``; ``fixed``: run every job),
``trace`` (bool) and ``result`` (path of the JSON written at the end).
"""

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def run_job(main, job) -> tuple:
    """Run every CLI line of ``job``; return ``(seconds, error or None)``."""
    start = time.perf_counter()
    error = None
    for argv in job["argvs"]:
        try:
            rc = main(argv)
        except Exception:  # a job boundary: record the failure and go on
            error = traceback.format_exc(limit=3)
            break
        if rc != 0:
            error = f"exit code {rc} from {argv[0]}"
            break
    return time.perf_counter() - start, error


def _finish(workload, job, seconds, error) -> dict:
    """Check a job's outputs, then delete them."""
    import workloads

    problems = [error] if error else workloads.check(workload, job["outs"], job["meta"])
    for out in job["outs"]:
        shutil.rmtree(out, ignore_errors=True)
    return {"id": job["id"], "seconds": seconds, "problems": problems}


def main(spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import graphonsp.cli as cli

    import_s = time.perf_counter() - t0
    smoke_s, smoke_error = run_job(cli.main, spec["smoke"])
    setup_s = time.perf_counter() - t0

    workload = spec["workload"]
    records = [_finish(workload, spec["smoke"], smoke_s, smoke_error)]
    result = {"import_s": import_s, "setup_s": setup_s, "warmup_s": None,
              "jobs": [], "untimed": records}

    if spec["mode"] != "probe":
        # one full-size job first, so allocator and page-cache warm-up
        # does not land in the first timed job
        seconds, error = run_job(cli.main, spec["warmup"])
        result["warmup_s"] = seconds
        records.append(_finish(workload, spec["warmup"], seconds, error))

        recorder = None
        if spec["trace"]:
            import tracing

            recorder = tracing.Recorder()
            tracing.instrument(recorder)
        main_fn = cli.main   # instrument() rebinds cli.main when tracing

        loop_start = time.perf_counter()
        for k, job in enumerate(spec["jobs"]):
            if spec["mode"] == "loop" and k >= spec["min_jobs"]:
                guess = statistics.median(r["seconds"] for r in result["jobs"])
                if time.perf_counter() - loop_start + guess > spec["seconds"]:
                    break
            if recorder:
                recorder.job = job["id"]
            seconds, error = run_job(main_fn, job)
            result["jobs"].append(_finish(workload, job, seconds, error))
        if recorder:
            result["spans"] = recorder.spans
            result["counts"] = recorder.counts

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
