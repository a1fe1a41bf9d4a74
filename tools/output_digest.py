"""Print a sha256 digest of every output file of the benchmark's jobs.

Run from the root of a checkout:

    python3 tools/output_digest.py --workload cutdist-exact --seed 901 --jobs 16

The inputs are built by ``bench/workloads.prepare`` at full size, exactly as
``bench/run.py`` builds them, and jobs ``0 .. jobs-1`` run one after another
in this process through ``graphonsp.cli.main``, from the ``src`` directory of
the same checkout.  Each output file gives one ``workload job file sha256``
line, so ``diff`` of two checkouts' output shows whether a change kept the
outputs byte-identical.  With ``--keep DIR`` the jobs run under ``DIR``,
which is kept, so ``tools/compare_outputs.py`` can show how two checkouts'
outputs differ.  The exit code is 1 if any job failed.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(workloads, cli_main, name: str, seed: int, jobs: int, root: Path) -> int:
    """Run ``jobs`` jobs of workload ``name`` under ``root`` and print the
    digest lines; returns the number of jobs that failed."""
    _, make_job = workloads.prepare(name, "full", seed, root / "in")
    failed = 0
    for k in range(jobs):
        job_dir = root / f"job{k}"
        if any(cli_main(argv) != 0 for argv in make_job(k, job_dir)["argvs"]):
            failed += 1
            print(f"{name} {k} FAILED")
            continue
        for path in sorted(p for p in job_dir.rglob("*") if p.is_file()):
            print(f"{name} {k} {path.relative_to(job_dir).as_posix()} "
                  f"{workloads.sha256_file(path)}")
    return failed


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from graphonsp.cli import main as cli_main

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True,
                    help="run jobs 0 .. JOBS-1 of each workload")
    ap.add_argument("--keep", type=Path, metavar="DIR",
                    help="run the jobs under the new directory DIR and keep "
                         "their inputs and outputs there")
    args = ap.parse_args(argv)
    if args.keep and args.keep.exists():
        ap.error(f"--keep {args.keep} already exists")
    names = list(workloads.WORKLOADS) if "all" in args.workload else args.workload
    failed = 0
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        for name in names:
            failed += digest(workloads, cli_main, name, args.seed, args.jobs,
                             (args.keep or Path(tmp)) / name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
