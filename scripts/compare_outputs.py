#!/usr/bin/env python3
"""Compare two iterreg CLI output trees file by file.

    python3 scripts/compare_outputs.py A B

For each file present in either tree it prints one line: ``identical`` when
the bytes match, otherwise what fails to agree and the largest float deviation
of the file with the column it lies in, relative to the largest magnitude of
that column in either tree. Columns are the header columns of a schema-v1
CSV, the columns of a headerless numeric CSV (as written by
``numpy.savetxt``), and the leaves of a JSON file, a list of numbers counting
as one column. Other files that differ (SVG plots, captured text) are only
reported.

The exit code is 1 when an integer column differs (``k_star``, interior
flags, violation counts, exit codes; JSON booleans count as integers), or
when the trees cannot be compared column by column: a file or column present
on one side only, a different number of rows, missing values (empty cells or
NaN) in different places, or a number on one side where the other has text.
Otherwise it is 0, whatever the size of the floating-point deviations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

CSV_TAG = "# iterreg-csv v1"


def _number(text):
    """An int or float parsed from a cell, None for an empty cell, else the text."""
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _csv_columns(text):
    lines = text.splitlines()
    if lines and lines[0] == CSV_TAG:
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        header, body = rows[0], rows[1:]
    else:
        body = list(csv.reader(io.StringIO(text)))
        header = [str(j) for j in range(max((len(r) for r in body), default=0))]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged rows")
    return {name: [_number(r[j].strip()) for r in body] for j, name in enumerate(header)}


def _json_columns(value, path="", out=None):
    """Leaves of a JSON document by path; a list of scalars is one column."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, v in value.items():
            _json_columns(v, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            _json_columns(v, f"{path}[{i}]", out)
    else:
        out[path] = [int(v) if isinstance(v, bool) else v
                     for v in (value if isinstance(value, list) else [value])]
    return out


def columns_of(path, data):
    """The columns of a CSV or JSON file, or None when it is neither."""
    try:
        text = data.decode()
        if path.suffix == ".csv":
            return _csv_columns(text)
        if path.suffix == ".json":
            return _json_columns(json.loads(text))
    except (UnicodeDecodeError, ValueError, IndexError):
        pass
    return None


def _missing(v):
    return v is None or (isinstance(v, float) and math.isnan(v))


def compare_column(a, b):
    """(kind, deviation) of two columns; kind is 'int', 'float' or a structural problem."""
    if len(a) != len(b):
        return f"{len(a)} rows against {len(b)}", None
    if [_missing(v) for v in a] != [_missing(v) for v in b]:
        return "missing values in different places", None
    pairs = [(x, y) for x, y in zip(a, b) if not _missing(x)]
    if any(isinstance(x, str) or isinstance(y, str) for x, y in pairs):
        same = all(x == y for x, y in pairs)
        return ("text", 0.0) if same else ("text differs", None)
    if all(isinstance(x, int) and isinstance(y, int) for x, y in pairs):
        return "int", float(sum(x != y for x, y in pairs))
    scale = max((abs(v) for x, y in pairs for v in (x, y) if math.isfinite(v)), default=0.0)
    dev = 0.0
    for x, y in pairs:
        if x == y:
            continue
        d = abs(x - y)
        dev = max(dev, d / scale if scale > 0 and math.isfinite(d) else math.inf)
    return "float", dev


def compare_trees(root_a, root_b):
    """Print one report line per file; return (ok, largest float deviation, where)."""
    files = sorted({p.relative_to(r) for r in (root_a, root_b) for p in r.rglob("*")
                    if p.is_file()})
    ok, worst, where = True, 0.0, None
    for rel in files:
        pa, pb = root_a / rel, root_b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {root_a if pa.is_file() else root_b}")
            ok = False
            continue
        da, db = pa.read_bytes(), pb.read_bytes()
        if da == db:
            print(f"{rel}: identical")
            continue
        ca, cb = columns_of(rel, da), columns_of(rel, db)
        if ca is None or cb is None:
            print(f"{rel}: differs (not compared by column)")
            continue
        problems, file_worst, worst_name = [], 0.0, None
        if set(ca) != set(cb):
            problems.append(f"columns {sorted(set(ca) ^ set(cb))} on one side only")
        for name in [c for c in ca if c in cb]:
            kind, dev = compare_column(ca[name], cb[name])
            if kind == "float":
                if dev > file_worst:
                    file_worst, worst_name = dev, name
            elif kind == "int":
                if dev:
                    problems.append(f"{name}: integer column differs in {int(dev)} rows")
            elif kind != "text":
                problems.append(f"{name}: {kind}")
        ok = ok and not problems
        if file_worst > worst:
            worst, where = file_worst, f"{rel}:{worst_name}"
        floats = ("numbers agree" if worst_name is None else
                  f"max relative deviation {file_worst:.3e} in column {worst_name}")
        print(f"{rel}: " + "; ".join(problems + [floats]))
    return ok, worst, where


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            ap.error(f"{root} is not a directory")
    ok, worst, where = compare_trees(args.a, args.b)
    print(f"largest relative deviation of a float column: {worst:.3e}"
          + (f" ({where})" if where else ""))
    print("integer columns and structure " + ("agree" if ok else "DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
