import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphonsp as gsp
from graphonsp import cutmetric
from graphonsp.cli import RunConfig, cmd_cutdist, cmd_fit_filter, cmd_sample, cmd_spectra, main


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def write_config(tmp_path, **overrides):
    cfg = RunConfig()
    for key, val in overrides.items():
        setattr(cfg, key, val)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return path


def small_graph_file(tmp_path, name="g.txt"):
    g = gsp.core_periphery_graph(300, 0.5, 0.6, seed=3)
    path = tmp_path / name
    gsp.write_edge_list(g, path)
    return path


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(seed=42, t_schedule=[1.0, 3.5], edge_scale="E")
        p = tmp_path / "c.json"
        p.write_text(cfg.to_json(), encoding="utf-8")
        again = RunConfig.from_file(p)
        assert again == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"sneaky": 1}', encoding="utf-8")
        with pytest.raises(gsp.GraphonError):
            RunConfig.from_file(p)


class TestCommands:
    def test_sample_outputs_and_manifest(self, tmp_path):
        cfg = RunConfig(seed=3, t_schedule=[1.0, 2.0], n_schedule=[20, 40],
                        resolution=32)
        out = tmp_path / "run"
        bundle = cmd_sample(cfg, out)
        files = read_tree(out)
        assert "densities.csv" in files and "subsequence.csv" in files
        assert files["densities.csv"].decode().splitlines()[0] == (
            "m_index,t_m,n,edges,pair_density,density_limit")
        # every non-manifest file is listed with a matching hash
        manifest = json.loads(files["manifest.json"])
        for name, digest in manifest["files"].items():
            assert hashlib.sha256(files[name]).hexdigest() == digest
        assert set(manifest["files"]) == set(files) - {"manifest.json"}
        assert bundle.run_id == manifest["run_id"]

    def test_sample_zero_graphon_writes_empty_edge_lists(self, tmp_path):
        cfg = RunConfig(seed=1, graphon_family="constant_box", graphon_p=0.0,
                        t_schedule=[1.0], n_schedule=[10], resolution=8)
        out = tmp_path / "zero"
        cmd_sample(cfg, out)
        g = gsp.read_edge_list(out / "edges_m0_n10.txt")
        assert g.n == 10 and g.edge_count == 0

    def test_spectra_complete_graph_column(self, tmp_path):
        # growing complete graphs: lambda_1 = V - 1 in every row
        g_path = tmp_path / "k20.txt"
        iu = np.triu_indices(20, 1)
        gsp.write_edge_list(gsp.Graph(20, np.column_stack(iu)), g_path)
        cfg = RunConfig(seed=0, growth_batch=5, growth_steps=4, t_set=[1],
                        tail_from=1, window=2)
        out = tmp_path / "spectra"
        cmd_spectra(cfg, g_path, out)
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        for row in rows:
            vals = row.split(",")
            assert float(vals[4]) == pytest.approx(float(vals[1]) - 1, abs=1e-8)
        fits = json.loads((out / "fits.json").read_text())
        assert set(fits["1"]) == {"generalized", "classical", "graphing"}

    def test_spectra_epsilon_trims_parent_graph(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(seed=1, growth_batch=30, growth_steps=3, t_set=[1],
                        tail_from=1, window=2, epsilon_m=0.5)
        out = tmp_path / "eps"
        cmd_spectra(cfg, g_path, out)
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert rows  # growth ran on the trimmed 150-vertex parent

    def test_spectra_short_tail_errors(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(growth_batch=100, growth_steps=2, t_set=[1], tail_from=5)
        with pytest.raises(gsp.GraphonError):
            cmd_spectra(cfg, g_path, tmp_path / "bad")

    def test_fit_filter_outputs(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(seed=5, fit_degree=2, trajectory_points=6,
                        ratio_tail_from=2)
        out = tmp_path / "fit"
        cmd_fit_filter(cfg, g_path, out)
        lines = (out / "coefficients.csv").read_text().splitlines()
        assert lines[0] == ("k,m_k,E_k,c_classical,c_generalized,"
                            "r_classical,r_generalized")
        assert len(lines) > 1
        summary = json.loads((out / "ratio_summary.json").read_text())
        assert "generalized" in summary["scalings"]

    def test_cutdist_identical_inputs(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(cut_mode="degree_sort", cut_restarts=8)
        out = tmp_path / "cd"
        cmd_cutdist(cfg, g_path, g_path, out)
        rep = json.loads((out / "cutdist.json").read_text())
        assert rep["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_cutdist_spec_strings(self, tmp_path):
        cfg = RunConfig(cut_mode="exact")
        out = tmp_path / "cd2"
        cmd_cutdist(cfg, "constant_box:p=0.5,s=1", "constant_box:p=0.125,s=2", out)
        rep = json.loads((out / "cutdist.json").read_text())
        assert rep["distance"] == pytest.approx(0.75, abs=1e-12)
        assert rep["exact"]


class TestMainEntry:
    def test_exit_zero_and_error_json(self, tmp_path):
        rc = main(["sample", "--out", str(tmp_path / "ok"), "--seed", "1",
                   "--config", str(write_config(tmp_path, n_schedule=[5],
                                                t_schedule=[1.0], resolution=8))])
        assert rc == 0

    def test_missing_file_gives_machine_readable_error(self, tmp_path, capsys):
        rc = main(["spectra", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    @pytest.mark.parametrize("command, config, key", [
        ("sample", '{"seed": "7"}', "seed"),
        ("cutdist-union", '{"seed": "7"}', "seed"),
        ("cutdist-exact", '{"seed": "7"}', "seed"),
        ("sample", '{"t_schedule": [1.0, NaN]}', "t_schedule"),
        ("cutdist-spec", None, "'p'"),
        ("sample", '{"eig_tol": 1e-8}', "unknown config keys: ['eig_tol']"),
    ], ids=["sample-seed-string", "cutdist-union-seed-string",
            "cutdist-exact-seed-string", "sample-nan-schedule", "spec-without-value",
            "sample-removed-eig-tol"])
    def test_bad_input_gives_one_json_error(self, tmp_path, capsys, command,
                                            config, key):
        argv = {
            "sample": ["sample"],
            "cutdist-union": ["cutdist", str(small_graph_file(tmp_path)), "celebrity"],
            "cutdist-exact": ["cutdist", "constant_box:p=0.5,s=1",
                              "constant_box:p=0.125,s=2", "--mode", "exact"],
            "cutdist-spec": ["cutdist", "constant_box:p", "celebrity"],
        }[command] + ["--out", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / "bad.json"
            path.write_text(config, encoding="utf-8")
            argv += ["--config", str(path)]
        assert main(argv) != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "GraphonError"
        assert key in err["message"]
        if command == "cutdist-spec":
            assert "key=value" in err["message"]

    def test_spectra_t_zero_gives_one_json_error(self, tmp_path, capsys):
        argv = ["spectra", str(small_graph_file(tmp_path)), "--out", str(tmp_path / "out"),
                "--config", str(write_config(tmp_path, t_set=[0, 1], growth_batch=50,
                                             growth_steps=4, tail_from=1, window=2))]
        assert main(argv) != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": "t = 0 is not a valid eigenvalue index"}

    @pytest.mark.parametrize("command, key, value, message", [
        ("spectra", "tail_from", -3, "tail_from must lie in [0, 2], got -3"),
        ("fit-filter", "ratio_tail_from", -3, "tail_from must lie in [0, 4], got -3"),
        ("spectra", "epsilon_m", -0.5, "epsilon_m must lie in [0, 1), got -0.5"),
        ("spectra", "epsilon_m", 1.0, "epsilon_m must lie in [0, 1), got 1.0"),
        ("spectra", "tail_from", 3, "tail_from must lie in [0, 2], got 3"),
        ("spectra", "window", 50, "window must fit inside the trajectory"),
        ("spectra", "window", 0, "window must fit inside the trajectory"),
    ], ids=["spectra-tail-negative", "fit-filter-tail-negative", "epsilon-negative",
            "epsilon-one", "spectra-tail-too-late", "spectra-window-too-wide",
            "spectra-window-zero"])
    def test_out_of_range_window_gives_one_json_error(self, tmp_path, capsys, monkeypatch,
                                                      command, key, value, message):
        # a run that succeeds but for the one key under test; it must fail
        # before it grows or fits a subgraph, and write nothing
        settings = dict(t_set=[1], growth_batch=50, growth_steps=4, tail_from=1,
                        window=2, trajectory_points=6, ratio_tail_from=2)
        config = write_config(tmp_path, **{**settings, key: value})
        for layer, name in ((gsp.sampling, "grow_subgraphs"),
                            (gsp.filterfit, "coefficient_trajectory")):
            monkeypatch.setattr(layer, name, lambda *args, **kwargs: pytest.fail(
                "the run did work before its windows were checked"))
        out = tmp_path / "out"
        argv = [command, str(small_graph_file(tmp_path)), "--out", str(out),
                "--config", str(config)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "GraphonError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("case, error, message", [
        ("cutdist-missing-file", "FileNotFoundError", "nope.txt"),
        ("spectra-missing-file", "FileNotFoundError", "nope.txt"),
        ("fit-filter-missing-file", "FileNotFoundError", "nope.txt"),
        ("spectra-bad-edge-scale", "ValueError", "edge_scale must be 'E' or '2E'"),
        ("sample-probability-above-one", "ProbabilityRangeError", "exceeds 1"),
        ("sample-decreasing-schedule", "ScheduleError",
         "t_schedule must be strictly increasing"),
    ])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, case, error,
                                                   message):
        missing = str(tmp_path / "nope.txt")
        config = write_config(tmp_path, t_set=[1], growth_batch=50, growth_steps=4,
                              tail_from=1, window=2, edge_scale="X")
        # g(x) = 2 exp(-x): the n = 1 cells sample, the n = 50 cells raise
        above_one = write_config(tmp_path / "p", graphon_family="rank_one_exp",
                                 graphon_c=2.0, n_schedule=[1, 50])
        decreasing = write_config(tmp_path / "t", t_schedule=[2.0, 1.0])
        out = tmp_path / "out"
        argv = {
            "cutdist-missing-file": ["cutdist", "celebrity", missing],
            "spectra-missing-file": ["spectra", missing],
            "fit-filter-missing-file": ["fit-filter", missing],
            "spectra-bad-edge-scale": ["spectra", str(small_graph_file(tmp_path)),
                                       "--config", str(config)],
            "sample-probability-above-one": ["sample", "--config", str(above_one)],
            "sample-decreasing-schedule": ["sample", "--config", str(decreasing)],
        }[case] + ["--out", str(out)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("0 99999999999999999999\n", "malformed edge line: '0 99999999999999999999'"),
        ("n 99999999999999999999\n0 1\n",
         "vertex count must lie in [0, 3037000499], got 99999999999999999999"),
    ], ids=["id-beyond-int64", "vertex-count-beyond-bound"])
    def test_huge_ids_give_one_json_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "big.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["cutdist", str(path), "celebrity", "--out", str(tmp_path / "out")]
        assert main(argv) != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("target, config, message", [
        ("rank_one_exp", '{"resolution": 0}', "resolution must be at least 1"),
        ("rank_one_exp", '{"resolution": -3}', "resolution must be at least 1"),
        ("celebrity", '{"cut_restarts": 0}', "restarts must be at least 1, got 0"),
        ("celebrity", '{"cut_restarts": -1}', "restarts must be at least 1, got -1"),
    ], ids=["resolution-zero", "resolution-negative", "restarts-zero",
            "restarts-negative"])
    def test_nonpositive_count_gives_one_json_error(self, tmp_path, capsys, target,
                                                    config, message):
        path = tmp_path / "bad.json"
        path.write_text(config, encoding="utf-8")
        argv = ["cutdist", str(small_graph_file(tmp_path)), target,
                "--out", str(tmp_path / "out"), "--config", str(path)]
        assert main(argv) != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("mode", ["bogus", "heuristic"])
    @pytest.mark.parametrize("target", ["celebrity", "self"])
    def test_unknown_cut_mode_gives_one_json_error(self, tmp_path, capsys, mode,
                                                   target):
        # the incommensurable (celebrity) and the uniform (self) grid alike
        graph = str(small_graph_file(tmp_path))
        argv = ["cutdist", graph, graph if target == "self" else target,
                "--out", str(tmp_path / "out"),
                "--config", str(write_config(tmp_path, cut_mode=mode))]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": f"unknown mode {mode!r}"}
        assert not (tmp_path / "out" / "cutdist.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["cutdist", "a", "b", "--out", "OUT", "--mode", "bogus"],
         "graphonsp cutdist: argument --mode: invalid choice: 'bogus'"),
        (["cutdist", "a", "b", "--out", "OUT", "--mode", "heuristic"],
         "graphonsp cutdist: argument --mode: invalid choice: 'heuristic'"),
        (["cutdist", "a", "b", "--out", "OUT", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["cutdist", "a", "b"], "the following arguments are required: --out"),
        (["sample", "--out", "OUT", "--mode", "exact"], "unrecognized arguments: --mode exact"),
        (["sample", "--out", "OUT", "--edge-scale", "E"],
         "unrecognized arguments: --edge-scale E"),
        (["cutdist", "a", "b", "--out", "OUT", "--edge-scale", "E"],
         "unrecognized arguments: --edge-scale E"),
        (["fit-filter", "g.txt", "--out", "OUT", "--mode", "exact"],
         "unrecognized arguments: --mode exact"),
    ], ids=["bad-mode", "heuristic-alias", "unknown-flag", "missing-out", "sample-mode",
            "sample-edge-scale", "cutdist-edge-scale", "fit-filter-mode"])
    def test_usage_error_gives_one_json_error(self, tmp_path, capsys, argv, message):
        # each flag is accepted only by the command that reads it
        out = tmp_path / "out"
        assert main([str(out) if a == "OUT" else a for a in argv]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "GraphonError" and message in err["message"]
        assert not out.exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cutdist", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: graphonsp cutdist") and captured.err == ""
        assert "--mode" in captured.out and "--edge-scale" not in captured.out

    def test_mode_flag_overrides_config(self, tmp_path):
        out = tmp_path / "cd"
        rc = main(["cutdist", "celebrity", "celebrity", "--out", str(out),
                   "--mode", "exact"])
        assert rc == 0
        rep = json.loads((out / "cutdist.json").read_text())
        assert rep["exact"] is True

    def test_edge_scale_flag_overrides_config(self, tmp_path):
        out = tmp_path / "sp"
        rc = main(["spectra", str(small_graph_file(tmp_path)), "--out", str(out),
                   "--edge-scale", "E",
                   "--config", str(write_config(tmp_path, t_set=[1], growth_batch=50,
                                                growth_steps=4, tail_from=1, window=2))])
        assert rc == 0
        assert json.loads((out / "config.json").read_text())["edge_scale"] == "E"

    def test_subprocess_entry(self, tmp_path):
        # the child imports the package this test imported, installed or not
        src = str(Path(gsp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        r = subprocess.run(
            [sys.executable, "-m", "graphonsp.cli", "cutdist", "celebrity",
             "celebrity", "--out", str(tmp_path / "sp")],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0


class TestDeterminism:
    def test_sample_rerun_is_byte_identical(self, tmp_path):
        cfg = RunConfig(seed=9, t_schedule=[1.0, 2.0], n_schedule=[15, 30],
                        resolution=16)
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_sample(cfg, a)
        cmd_sample(cfg, b)
        assert read_tree(a) == read_tree(b)

    def test_sample_files_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # cells are sampled, and their edge lists written, on the pool; the
        # subsequence's union-grid cuts split their starts across the CPUs
        cfg = RunConfig(seed=4, graphon_family="rank_one_exp", t_schedule=[2.0, 4.0],
                        n_schedule=[100, 200, 400], resolution=32)
        monkeypatch.setattr(cutmetric, "_pool", cutmetric._pool)   # restored after
        trees = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cutmetric, "_cpus", lambda: cpus)
            cutmetric._new_pool()
            cmd_sample(cfg, tmp_path / str(cpus))
            cutmetric._pool.shutdown()
            trees.append(read_tree(tmp_path / str(cpus)))
        assert len(trees[0]) == 6 + 5   # edge lists, 3 tables, config, manifest
        assert trees[0] == trees[1] == trees[2]

    def test_spectra_rerun_is_byte_identical(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(seed=2, growth_batch=60, growth_steps=4, t_set=[1, -1],
                        tail_from=1, window=2)
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_spectra(cfg, g_path, a)
        cmd_spectra(cfg, g_path, b)
        assert read_tree(a) == read_tree(b)

    def test_fit_filter_rerun_is_byte_identical(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(seed=4, fit_degree=2, trajectory_points=5,
                        ratio_tail_from=1)
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_fit_filter(cfg, g_path, a)
        cmd_fit_filter(cfg, g_path, b)
        assert read_tree(a) == read_tree(b)

    def test_cutdist_rerun_is_byte_identical(self, tmp_path):
        g_path = small_graph_file(tmp_path)
        cfg = RunConfig(seed=6, cut_restarts=8)
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_cutdist(cfg, g_path, "celebrity", a)
        cmd_cutdist(cfg, g_path, "celebrity", b)
        assert read_tree(a) == read_tree(b)

    def test_cutdist_outputs_do_not_depend_on_debug_logging(self, tmp_path, caplog):
        # two 8-vertex graphs with equal edge counts share a stretched
        # support, so the comparison runs (and logs) a local search
        rng = np.random.default_rng(12)
        iu = np.column_stack(np.triu_indices(8, 1))
        paths = []
        for name in ("a.txt", "b.txt"):
            pick = np.sort(rng.choice(len(iu), size=14, replace=False))
            paths.append(tmp_path / name)
            gsp.write_edge_list(gsp.Graph(8, iu[pick]), paths[-1])
        cfg = RunConfig(seed=3, cut_mode="local_search")
        cmd_cutdist(cfg, *paths, tmp_path / "quiet")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="graphonsp"):
            cmd_cutdist(cfg, *paths, tmp_path / "debug")
        assert any("local search" in r.getMessage() for r in caplog.records)
        assert any("uniform grid of 8 cells" in r.getMessage() for r in caplog.records)
        # a graph against the unit square takes the union grid
        union_cfg = RunConfig(seed=3, cut_restarts=8)
        cmd_cutdist(union_cfg, small_graph_file(tmp_path), "celebrity",
                    tmp_path / "union-quiet")
        with caplog.at_level(logging.DEBUG, logger="graphonsp"):
            cmd_cutdist(union_cfg, small_graph_file(tmp_path), "celebrity",
                        tmp_path / "union-debug")
        assert any("union grid" in r.getMessage() for r in caplog.records)
        for quiet, debug in (("quiet", "debug"), ("union-quiet", "union-debug")):
            for name in ("cutdist.json", "manifest.json"):
                assert ((tmp_path / quiet / name).read_bytes()
                        == (tmp_path / debug / name).read_bytes())

    def test_sample_outputs_do_not_depend_on_debug_logging(self, tmp_path, caplog):
        cfg = RunConfig(seed=3, t_schedule=[1.0, 2.0], n_schedule=[20, 40],
                        resolution=32)
        cmd_sample(cfg, tmp_path / "quiet")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="graphonsp"):
            cmd_sample(cfg, tmp_path / "debug")
        assert sum(r.name == "graphonsp.sampling" and "blocks" in r.getMessage()
                   for r in caplog.records) == 4
        assert read_tree(tmp_path / "quiet") == read_tree(tmp_path / "debug")

    def test_spectra_outputs_do_not_depend_on_debug_logging(self, tmp_path, caplog):
        # a dense random graph keeps every vertex of its 150- and 300-vertex
        # subgraphs; the second is above the dense threshold, so both
        # solver paths log
        iu = np.column_stack(np.triu_indices(300, 1))
        pick = np.random.default_rng(5).random(len(iu)) < 0.1
        g_path = tmp_path / "g.txt"
        gsp.write_edge_list(gsp.Graph(300, iu[pick]), g_path)
        cfg = RunConfig(seed=2, growth_batch=150, growth_steps=2, t_set=[1, -1],
                        tail_from=0, window=2)
        cmd_spectra(cfg, g_path, tmp_path / "quiet")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="graphonsp"):
            cmd_spectra(cfg, g_path, tmp_path / "debug")
        solves = [r.getMessage() for r in caplog.records if r.name == "graphonsp.spectral"]
        assert [m.split(":")[0] for m in solves] == [
            "eigensolve by eigh on 150 dimensions", "eigensolve by eigsh on 300 dimensions"]
        assert all("k_pos 1, k_neg 1; largest residual" in m for m in solves)
        products = re.search(r"; (\d+) operator products$", solves[1])
        assert products and int(products.group(1)) > 0
        assert "operator products" not in solves[0]
        assert read_tree(tmp_path / "quiet") == read_tree(tmp_path / "debug")

    def test_library_logger_has_a_null_handler(self):
        assert any(isinstance(h, logging.NullHandler)
                   for h in logging.getLogger("graphonsp").handlers)
