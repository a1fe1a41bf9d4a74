"""Show whether two output trees differ only in the digits of their numbers.

Run from the root of each checkout, then compare:

    python3 tools/output_digest.py --workload all --seed 1 --jobs 4 --keep A
    python3 tools/output_digest.py --workload all --seed 1 --jobs 4 --keep B
    python3 tools/compare_outputs.py A B

Every file of either tree is compared by its path relative to the tree's
root.  A file whose bytes differ is split into numeric tokens and the text
between them.  When the text agrees, one ``file max_rel`` line gives the
largest relative difference ``|x - y| / max(|x|, |y|)`` of its numbers.  A
differing token that is the sha256 digest of a file in its own tree, as in
a manifest, follows from that file and is counted as a digest.  Anything
else (a file in one tree only, differing text, a digest of no file) prints
a ``file DIFFERS`` line, and the exit code is then 1.  For two JSON objects
that line names every top-level key whose value differs, as in
``cutdist.json DIFFERS in keys witness_cols, witness_rows``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

# a sha256 digest, else a decimal number; the text between them must agree
_TOKEN = re.compile(r"(\b[0-9a-f]{64}\b|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}


def _digests(files: dict) -> set:
    return {hashlib.sha256(p.read_bytes()).hexdigest() for p in files.values()}


def compare_file(a: str, b: str, digests_a: set, digests_b: set):
    """``(max_rel, digests)`` of two texts that differ only in numbers and
    in digests of their own trees' files, else ``None``."""
    pa, pb = _TOKEN.split(a), _TOKEN.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    max_rel, digests = 0.0, 0
    for x, y in zip(pa[1::2], pb[1::2]):
        if x == y:
            continue
        if _DIGEST.fullmatch(x) and _DIGEST.fullmatch(y):
            if x not in digests_a or y not in digests_b:
                return None
            digests += 1
        elif _DIGEST.fullmatch(x) or _DIGEST.fullmatch(y):
            return None
        else:
            fx, fy = float(x), float(y)
            if fx != fy:
                max_rel = max(max_rel, abs(fx - fy) / max(abs(fx), abs(fy)))
    return max_rel, digests


def differing_keys(a: str, b: str) -> list:
    """Top-level keys of two JSON objects whose values differ, or that one
    lacks; empty unless both texts are JSON objects."""
    try:
        ja, jb = json.loads(a), json.loads(b)
    except ValueError:
        return []
    if not (isinstance(ja, dict) and isinstance(jb, dict)):
        return []
    return [key for key in sorted(ja.keys() | jb.keys())
            if key not in ja or key not in jb or ja[key] != jb[key]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    files_a, files_b = _files(args.dir_a), _files(args.dir_b)
    digests_a, digests_b = _digests(files_a), _digests(files_b)
    bad = same = 0
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            print(f"{name} DIFFERS: in one tree only")
            bad += 1
            continue
        a, b = files_a[name].read_bytes(), files_b[name].read_bytes()
        if a == b:
            same += 1
            continue
        a, b = a.decode("utf-8", "replace"), b.decode("utf-8", "replace")
        got = compare_file(a, b, digests_a, digests_b)
        if got is None:
            keys = differing_keys(a, b)
            print(f"{name} DIFFERS in keys {', '.join(keys)}" if keys
                  else f"{name} DIFFERS: not only in numbers")
            bad += 1
        else:
            print(f"{name} max_rel {got[0]:.3e}" + (f", {got[1]} digests" if got[1] else ""))
    print(f"{same} files identical, {bad} differ in more than numbers")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
