"""Command-line surface: sample / spectra / fit-filter / cutdist.

Every run writes its resolved configuration next to the outputs and a
manifest with content hashes; identical configurations (seed included)
reproduce byte-identical files.  Errors leave a machine-readable JSON
object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import core, cutmetric, filterfit, sampling, spectral
from .errors import GraphonError

__all__ = [
    "RunConfig",
    "ResultBundle",
    "cmd_sample",
    "cmd_spectra",
    "cmd_fit_filter",
    "cmd_cutdist",
    "main",
]


# graphon family -> (constructor, parameter names); parameter ``x`` defaults
# to the config field ``graphon_x``
_FAMILIES = {
    "celebrity": (core.CelebrityLimit, ()),
    "constant_box": (core.ConstantBox, ("p", "s")),
    "rank_one_exp": (core.RankOneExp, ("c", "lam")),
}


@dataclass
class RunConfig:
    """Flat run configuration; defaults are explicit and echoed back."""

    seed: int = 0
    graphon_family: str = "celebrity"       # celebrity | constant_box | rank_one_exp
    graphon_p: float = 0.5
    graphon_s: float = 1.0
    graphon_c: float = 1.0
    graphon_lam: float = 1.0
    t_schedule: list = field(default_factory=lambda: [1.0, 2.0])
    n_schedule: list = field(default_factory=lambda: [50, 100])
    resolution: int = 256
    epsilon_m: float = 0.0
    growth_batch: int = 200
    growth_steps: int = 10
    drop_isolated: bool = True
    t_set: list = field(default_factory=lambda: [-3, -2, -1, 1, 2, 3])
    tail_from: int = 5
    window: int = 5
    edge_scale: str = "2E"
    fit_degree: int = 2
    top_degree_fraction: float = 0.10
    trajectory_points: int = 10
    ratio_tail_from: int = 5
    cut_mode: str = "degree_sort"           # exact | degree_sort | local_search
    cut_restarts: int = 64

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise GraphonError("config must be a JSON object")
        cfg = cls()
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise GraphonError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            _check_field(key, val, getattr(cfg, key))
            setattr(cfg, key, val)
        return cfg

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    def graphon(self) -> core.GraphonSpec:
        if self.graphon_family not in _FAMILIES:
            raise GraphonError(f"unknown graphon family {self.graphon_family!r}")
        make, keys = _FAMILIES[self.graphon_family]
        return make(*(getattr(self, f"graphon_{key}") for key in keys))


def _same_kind(val, default) -> bool:
    """``val`` has the type of ``default``; ints pass for floats, which must
    be finite, and bools pass only for bools."""
    if isinstance(default, bool) or isinstance(val, bool):
        return isinstance(val, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(val, (int, float)) and math.isfinite(val)
    return isinstance(val, type(default))


def _check_field(key: str, val, default) -> None:
    if isinstance(default, list):
        ok = isinstance(val, list) and all(_same_kind(x, default[0]) for x in val)
    else:
        ok = _same_kind(val, default)
    if not ok:
        raise GraphonError(f"config key {key!r} must have the type of its default "
                           f"{default!r}, with finite numbers; got {val!r}")


@dataclass(frozen=True)
class ResultBundle:
    run_id: str
    out_dir: Path
    files: dict   # name -> sha256 hex digest


def _fmt(x) -> str:
    """Stable text for CSV cells (shortest round-trip repr for floats)."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _fmt_opt(x) -> str:
    return "" if x is None else _fmt(x)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _finish(cfg: RunConfig, out_dir: Path, command: str) -> ResultBundle:
    """Echo the resolved config and hash every emitted file."""
    (out_dir / "config.json").write_text(cfg.to_json(), encoding="utf-8")
    files = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        files[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    run_id = hashlib.sha256(
        (command + "\n" + cfg.to_json()).encode()).hexdigest()[:16]
    _write_json(out_dir / "manifest.json",
                {"run_id": run_id, "command": command, "files": files})
    return ResultBundle(run_id, out_dir, files)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_dir) -> ResultBundle:
    """Sample the double sequence; write edge lists, densities, and the
    sparse-subsequence table."""
    w = cfg.graphon()
    grid = sampling.sample_double_sequence(w, cfg.t_schedule, cfg.n_schedule, cfg.seed)
    rows = []
    edges = []   # (graph, file name) per cell
    for mi, row in enumerate(grid):
        t_m = cfg.t_schedule[mi]
        limit = core.l1_restricted(w, t_m) / t_m**2
        for cell in row:
            edges.append((cell.graph, f"edges_m{mi}_n{cell.points.n}.txt"))
            rows.append((mi, t_m, cell.points.n, cell.graph.edge_count,
                         sampling.pair_density(cell.graph), limit))
    sub = sampling.extract_sparse_subsequence(grid, w, resolution=cfg.resolution,
                                              seed=cfg.seed)
    # every result is in hand: a run that fails above writes nothing
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cutmetric._map(core.write_edge_list, [(g, out_dir / name) for g, name in edges],
                   [g.edge_count for g, _ in edges])
    _write_csv(out_dir / "densities.csv",
               ["m_index", "t_m", "n", "edges", "pair_density", "density_limit"],
               rows)
    _write_csv(out_dir / "subsequence.csv",
               ["m", "t_m", "phi_m", "pair_density", "density_limit",
                "stretched_distance"],
               sub.rows)
    _write_json(out_dir / "subsequence_gaps.json",
                {"gaps": [{"m": m, "reason": r} for m, r in sub.gaps]})
    return _finish(cfg, out_dir, "sample")


def cmd_spectra(cfg: RunConfig, edge_list_path, out_dir) -> ResultBundle:
    """Growth -> eigenvalue trajectory -> model fits -> moving averages."""
    if not 0.0 <= cfg.epsilon_m < 1.0:
        raise GraphonError(f"epsilon_m must lie in [0, 1), got {cfg.epsilon_m!r}")
    schedule = sampling.GrowthSchedule(cfg.growth_batch, cfg.growth_steps,
                                       cfg.drop_isolated)
    # the trajectory has one point per growth step: check both windows
    # against it before any work, so a failing run writes nothing
    if not 0 <= cfg.tail_from <= cfg.growth_steps - 2:
        raise GraphonError(f"tail_from must lie in [0, {cfg.growth_steps - 2}], "
                           f"got {cfg.tail_from}")
    if not 1 <= cfg.window <= cfg.growth_steps:
        raise GraphonError("window must fit inside the trajectory")
    g = core.read_edge_list(edge_list_path)
    if cfg.epsilon_m > 0.0:
        # trim the top epsilon_m fraction of the canonical embedding before
        # growth, i.e. restrict W_G to [0, 1 - epsilon_m]^2
        keep = max(1, int(math.floor((1.0 - cfg.epsilon_m) * g.n)))
        g, _ = g.induced_subgraph(np.arange(keep))
    steps = sampling.grow_subgraphs(g, schedule, cfg.seed)
    traj = spectral.trajectory([s.graph for s in steps], cfg.t_set)
    rows = []
    for p in traj:
        for t in sorted(p.eigenvalues):
            lam = p.eigenvalues[t]
            rows.append((p.n_index, p.n_vertices, p.n_edges, t, lam,
                         lam / p.n_vertices,
                         lam / np.sqrt(2.0 * p.n_edges) if p.n_edges else 0.0))
    fits = {}
    for t in sorted(set(int(t) for t in cfg.t_set)):
        reports = spectral.fit_models(traj, cfg.tail_from, t, cfg.edge_scale)
        fits[str(t)] = {name: {"slope": r.slope, "mse": r.mse,
                               "n_points": r.n_points}
                        for name, r in reports.items()}
    averages = spectral.moving_scaled_averages(traj, window=cfg.window)
    avg_rows = []
    for t in sorted(averages):
        a, b = averages[t]
        for i in range(a.size):
            avg_rows.append((t, i, a[i], b[i]))
    # every result is in hand: a run that fails above writes nothing
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv",
               ["n_index", "V", "E", "t", "lambda", "scaled_classical",
                "scaled_generalized"], rows)
    _write_json(out_dir / "fits.json", fits)
    _write_csv(out_dir / "averages.csv",
               ["t", "window_start", "a_classical", "b_generalized"], avg_rows)
    return _finish(cfg, out_dir, "spectra")


def cmd_fit_filter(cfg: RunConfig, edge_list_path, out_dir) -> ResultBundle:
    """Diffusion synthesis -> coefficient trajectory -> convergence ratios."""
    g = core.read_edge_list(edge_list_path)
    spec = filterfit.DiffusionSpec(cfg.fit_degree,
                                   top_degree_fraction=cfg.top_degree_fraction)
    npts = max(2, min(cfg.trajectory_points, g.n))
    sizes = np.unique(np.linspace(max(cfg.fit_degree + 1, g.n // npts), g.n,
                                  npts).astype(int))
    sizes[-1] = g.n
    # a large ratio_tail_from is clamped to the fitted points below; a
    # negative one fails before any fit, and before anything is written
    if cfg.ratio_tail_from < 0:
        raise GraphonError(f"tail_from must lie in [0, {len(sizes) - 2}], "
                           f"got {cfg.ratio_tail_from}")
    traj = filterfit.coefficient_trajectory(g, list(sizes), spec, seed=cfg.seed)
    tail = min(cfg.ratio_tail_from, max(0, len(traj.ks) - 2))
    ratios = {}
    summary = {}
    for name, series in (("classical", traj.classical),
                         ("generalized", traj.generalized)):
        rr = filterfit.convergence_ratios(series, tail)
        summary[name] = {"exact_convergence": rr.exact_convergence,
                         "tail_mean": rr.tail_mean,
                         "denominator": rr.denominator}
        ratios[name] = {} if rr.ratios is None else {
            tail + i: val for i, val in enumerate(rr.ratios)}
    rows = []
    for idx in range(len(traj.ks)):
        rows.append((traj.ks[idx], traj.sizes[idx], traj.edge_counts[idx],
                     traj.classical[idx], traj.generalized[idx],
                     _fmt_opt(ratios["classical"].get(idx)),
                     _fmt_opt(ratios["generalized"].get(idx))))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "coefficients.csv",
               ["k", "m_k", "E_k", "c_classical", "c_generalized",
                "r_classical", "r_generalized"], rows)
    ratio_rows = [(name, traj.ks[pos], val)
                  for name in ("classical", "generalized")
                  for pos, val in sorted(ratios[name].items())]
    _write_csv(out_dir / "ratios.csv", ["scaling", "k", "ratio"], ratio_rows)
    _write_json(out_dir / "ratio_summary.json",
                {"tail_from": tail, "scalings": summary,
                 "gaps": [{"k": k, "reason": r} for k, r in traj.errors]})
    return _finish(cfg, out_dir, "fit-filter")


def _load_comparison_input(cfg: RunConfig, text: str):
    """An input is an edge-list path or a spec string like
    'constant_box:p=0.5,s=1'."""
    head = text.split(":", 1)[0]
    if head not in _FAMILIES:
        g = core.read_edge_list(text)
        return core.canonical_graphon(g)
    make, allowed = _FAMILIES[head]
    params = {}
    if ":" in text:
        for item in text.split(":", 1)[1].split(","):
            key, sep, val = item.partition("=")
            try:
                num = float(val) if sep and key.strip() in allowed else math.nan
            except ValueError:
                num = math.nan
            if not math.isfinite(num):
                raise GraphonError(
                    f"bad item {item!r} in spec {text!r}: expected key=value with "
                    f"key in {list(allowed)} and a finite number")
            params[key.strip()] = num
    return make(*(params.get(key, getattr(cfg, f"graphon_{key}")) for key in allowed))


def cmd_cutdist(cfg: RunConfig, input_a, input_b, out_dir) -> ResultBundle:
    """Stretched cut distance between two graphs or named graphon specs."""
    wa = _load_comparison_input(cfg, str(input_a))
    wb = _load_comparison_input(cfg, str(input_b))
    res = cutmetric.stretched_cut_distance(
        wa, wb, mode=cfg.cut_mode, resolution=cfg.resolution,
        restarts=cfg.cut_restarts, seed=cfg.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "cutdist.json", {
        "distance": res.distance,
        "exact": res.exact,
        "permutation": list(res.permutation) if res.permutation is not None else None,
        "cut_value": res.cut.value,
        "cut_exact": res.cut.exact,
        "witness_rows": list(res.cut.witness_rows),
        "witness_cols": list(res.cut.witness_cols),
    })
    return _finish(cfg, out_dir, "cutdist")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error too leaves one JSON object; --help still exits 0
        raise GraphonError(f"{self.prog}: {message}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="overrides config seed")
    p.add_argument("--out", type=str, required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="graphonsp")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a double graph sequence")
    _add_common(p)

    p = sub.add_parser("spectra", help="eigenvalue scaling diagnostics")
    p.add_argument("input", type=str, help="edge-list file")
    _add_common(p)
    p.add_argument("--edge-scale", type=str, default=None, choices=["E", "2E"])

    p = sub.add_parser("fit-filter", help="filter-coefficient convergence")
    p.add_argument("input", type=str, help="edge-list file")
    _add_common(p)

    p = sub.add_parser("cutdist", help="stretched cut distance of two inputs")
    p.add_argument("input_a", type=str)
    p.add_argument("input_b", type=str)
    _add_common(p)
    p.add_argument("--mode", type=str, default=None,
                   choices=["exact", "degree_sort", "local_search"], help="cut mode")
    return ap


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if getattr(args, "mode", None):
        cfg.cut_mode = args.mode
    if getattr(args, "edge_scale", None):
        cfg.edge_scale = args.edge_scale
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.command == "sample":
            cmd_sample(cfg, args.out)
        elif args.command == "spectra":
            cmd_spectra(cfg, args.input, args.out)
        elif args.command == "fit-filter":
            cmd_fit_filter(cfg, args.input, args.out)
        elif args.command == "cutdist":
            cmd_cutdist(cfg, args.input_a, args.input_b, args.out)
        else:  # pragma: no cover - argparse enforces the choices
            raise GraphonError(f"unknown command {args.command!r}")
    except (GraphonError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
