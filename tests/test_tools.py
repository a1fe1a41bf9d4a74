"""tools/compare_outputs.py on small output trees: what it counts as a
difference in numbers only, and what it reports as ``DIFFERS``."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import compare_outputs  # noqa: E402


def tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def with_manifest(files: dict) -> dict:
    """``files`` plus a manifest of their sha256 digests, as the CLI writes."""
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in files.items()}
    return {**files, "manifest.json": json.dumps({"files": digests}, sort_keys=True)}


def compare(tmp_path, capsys, files_a: dict, files_b: dict):
    """Exit code and printed lines of the tool on two trees."""
    code = compare_outputs.main([str(tree(tmp_path / "a", files_a)),
                                 str(tree(tmp_path / "b", files_b))])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = with_manifest({"x.csv": "k,v\n1,0.5\n", "y.json": '{"exact": true}\n'})
    code, lines = compare(tmp_path, capsys, files, files)
    assert code == 0
    assert lines == ["3 files identical, 0 differ in more than numbers"]


def test_numbers_only_change_prints_max_rel(tmp_path, capsys):
    code, lines = compare(tmp_path, capsys, {"x.csv": "k,v\n1,0.5\n2,4.0\n"},
                          {"x.csv": "k,v\n1,0.5\n2,4.000000000000001\n"})
    assert code == 0
    assert lines == ["x.csv max_rel 2.220e-16",
                     "0 files identical, 0 differ in more than numbers"]


def test_manifest_digest_that_follows_its_file_counts_as_a_digest(tmp_path, capsys):
    code, lines = compare(tmp_path, capsys, with_manifest({"x.csv": "v\n0.25\n"}),
                          with_manifest({"x.csv": "v\n0.5\n"}))
    assert code == 0
    assert lines == ["manifest.json max_rel 0.000e+00, 1 digests",
                     "x.csv max_rel 5.000e-01",
                     "0 files identical, 0 differ in more than numbers"]


@pytest.mark.parametrize("files_a, files_b, line", [
    ({"x.csv": "k,v\n1,0.5\n"}, {"x.csv": "k,w\n1,0.5\n"},
     "x.csv DIFFERS: not only in numbers"),
    ({"y.json": '{"a": 1, "b": 2}'}, {"y.json": '{"a": 1, "c": 2}'},
     "y.json DIFFERS in keys b, c"),
    ({"x.csv": "1\n", "z.txt": "2\n"}, {"x.csv": "1\n"}, "z.txt DIFFERS: in one tree only"),
    ({"m.json": '{"x.csv": "' + "0" * 64 + '"}'}, {"m.json": '{"x.csv": "' + "1" * 64 + '"}'},
     "m.json DIFFERS in keys x.csv"),
], ids=["changed-text", "changed-json-key", "one-tree-only", "digest-of-no-file"])
def test_other_differences_print_differs_and_exit_one(tmp_path, capsys, files_a,
                                                      files_b, line):
    code, lines = compare(tmp_path, capsys, files_a, files_b)
    assert code == 1
    assert line in lines
    assert lines[-1].endswith("1 differ in more than numbers")
