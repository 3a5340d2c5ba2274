"""Compare two run directories file by file.

Lists each file that only one of the two directories holds, and each file
whose bytes differ. For a differing CSV with the same shape (row count and
fields per row) it also gives the number of changed label fields and two
sizes of numeric change:

- max_rel, the largest |a - b| / max(|a|, |b|) over single fields. A value
  near zero can make it large for a change in the last bits.
- max_rel_col, the largest |a - b| of a column over the largest magnitude
  in that column, in either file. This is the change relative to the
  scale of the quantity.

A field is numeric when it parses as a float but not as an integer;
integers (rank, region, n) and text (category, flag, subject id) are labels,
compared as strings. Two NaNs are equal; a NaN against a number is an
infinite difference.

For a differing `.meta` file (one `key=value` per line) it lists the keys
only one side has and the shared keys whose values differ. A `.meta` that
only gains lines shows keys only in B and nothing else.

Use it to size a declared change of float summation order: such a change
should move only the last digits of numeric fields and leave every label,
and every file that is not a CSV, byte-equal.

Usage:
    python3 scripts/compare_runs.py RUN_A RUN_B

Exit status 0 when the two trees are byte-equal, 1 when they differ.
"""

import argparse
import csv
import math
import os
import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _number(field: str) -> float | None:
    """The field's value if it is a float literal that is not an integer."""
    try:
        int(field)
        return None
    except ValueError:
        pass
    try:
        return float(field)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _finite_max(*values: float) -> float:
    return max((v for v in values if math.isfinite(v)), default=0.0)


def compare_csv(a: Path, b: Path) -> dict:
    """max_rel, max_rel_col and the count of changed labels, or `shape` when
    the row counts or the field counts of a row differ."""
    with open(a, newline="", encoding="utf-8") as f:
        rows_a = list(csv.reader(f))
    with open(b, newline="", encoding="utf-8") as f:
        rows_b = list(csv.reader(f))
    if (len(rows_a) != len(rows_b)
            or any(len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        return {"shape": True}
    max_rel, labels = 0.0, 0
    diff, scale = {}, {}  # per column: largest |a - b|, largest |a| or |b|
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (fa, fb) in enumerate(zip(row_a, row_b)):
            na, nb = _number(fa), _number(fb)
            if na is not None and nb is not None:
                scale[j] = _finite_max(scale.get(j, 0.0), abs(na), abs(nb))
            if fa == fb:
                continue
            if na is None or nb is None:
                labels += 1
                continue
            rel = _relative(na, nb)
            max_rel = max(max_rel, rel)
            step = math.inf if math.isinf(rel) else abs(na - nb)
            diff[j] = max(diff.get(j, 0.0), step)
    max_rel_col = max((d / scale[j] if scale[j] else math.inf
                       for j, d in diff.items() if d), default=0.0)
    return {"shape": False, "max_rel": max_rel, "max_rel_col": max_rel_col,
            "labels": labels}


def _meta_items(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.partition("=")[::2] for line in lines)


def compare_meta(a: Path, b: Path) -> dict:
    """The keys only `a` has, only `b` has, and both have with other values."""
    items_a, items_b = _meta_items(a), _meta_items(b)
    return {"only_a": sorted(items_a.keys() - items_b.keys()),
            "only_b": sorted(items_b.keys() - items_a.keys()),
            "changed": sorted(key for key in items_a.keys() & items_b.keys()
                              if items_a[key] != items_b[key])}


def compare_runs(a: Path, b: Path) -> dict:
    """{"only_a": [...], "only_b": [...], "differ": {path: detail}}, where
    detail is compare_csv's result for a CSV, compare_meta's for a `.meta`
    and None for any other file."""
    files_a, files_b = _files(a), _files(b)
    differ = {}
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        if rel.endswith(".csv"):
            differ[rel] = compare_csv(a / rel, b / rel)
        elif rel.endswith(".meta"):
            differ[rel] = compare_meta(a / rel, b / rel)
        else:
            differ[rel] = None
    return {"only_a": sorted(files_a - files_b), "only_b": sorted(files_b - files_a),
            "differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.run_a, args.run_b):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    result = compare_runs(args.run_a, args.run_b)
    for rel in result["only_a"]:
        print(f"only in A  {rel}")
    for rel in result["only_b"]:
        print(f"only in B  {rel}")
    worst, worst_col = 0.0, 0.0
    for rel, detail in result["differ"].items():
        if detail is None:
            print(f"differs    {rel}")
        elif rel.endswith(".meta"):
            only_a, only_b, changed = (",".join(detail[k]) or "-"
                                       for k in ("only_a", "only_b", "changed"))
            print(f"differs    {rel}  keys only in A: {only_a}"
                  f"  only in B: {only_b}  changed: {changed}")
        elif detail["shape"]:
            print(f"differs    {rel}  row or field count")
        else:
            worst = max(worst, detail["max_rel"])
            worst_col = max(worst_col, detail["max_rel_col"])
            print(f"differs    {rel}  max_rel={detail['max_rel']:.3g}"
                  f"  max_rel_col={detail['max_rel_col']:.3g}"
                  f"  labels_changed={detail['labels']}")
    n = len(_files(args.run_a) | _files(args.run_b))
    changed = len(result["differ"]) + len(result["only_a"]) + len(result["only_b"])
    print(f"{changed} of {n} files differ; in same-shape CSVs "
          f"max_rel={worst:.3g} max_rel_col={worst_col:.3g}")
    return 1 if changed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): leave quietly, and point
        # stdout at devnull so the interpreter's last flush fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
