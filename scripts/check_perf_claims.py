#!/usr/bin/env python3
"""Checks every marked performance number in a Markdown file against the
committed benchmark record it names.

    python3 scripts/check_perf_claims.py docs/perf.md

A marked table row carries one HTML comment (invisible when rendered)
naming its selection, for example

    | FIFOs, BFS matrix <!-- perf-claim record=BENCH_vcqueue.json
      git_dirty=true seed=779712 workload=pf47_ugalpf
      metrics=peak_rss_mb,sim_cycles_per_s,pkt_hops_per_s,wall_s -->
      | ... | 58.0 MB | 80.7 | 647 k | 4.25 s |

(on one line in the file). The record is a `polarfly-bench-e2e/1`
document written by `bench/e2e/run.py --out`, relative to the repository
root. The selected runs are those whose `provenance.git_dirty`, `seed`
and `trace` (default 0, the plain runs) match and that measured the
workload; each metric is the median over them of the run's value. The
last len(metrics) cells of the row hold the metrics in order.

A row can instead name Google Benchmark results (the JSON that
`--benchmark_out_format=json` writes):

    | reset cost, PF q=13 <!-- perf-claim record=BENCH_reset.json
      benchmarks=BM_ResetCostQ13/0_median,BM_ResetCostQ13/1_median
      metric=real_time --> | 70.0 us | 9.2 us |

The last len(benchmarks) cells hold `metric` of each named benchmark in
order: `real_time` or `cpu_time`, converted to the cell's time unit
(ns, us, ms or s), or a user counter such as `cycles/s`.

Each cell is a number with an optional `k` (thousands) or `M`
(millions) and a unit. The script recomputes each number at the printed
precision and exits 1 on any mismatch. In a table with one marked row,
every body row must be marked, and a file without any marked row fails
too.
"""

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKER = re.compile(r"<!--\s*perf-claim\s+(.*?)\s*-->")
CELL = re.compile(
    r"^([0-9]+(?:\.[0-9]+)?)(\s*[kM](?![A-Za-z]))?(\s*[A-Za-z/%]+)?$")
SCALE = {"": 1.0, "k": 1e3, "M": 1e6}
NANOS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
TIMES = ("real_time", "cpu_time")


def parse_marker(text):
    fields = dict(item.split("=", 1) for item in text.split())
    if "benchmarks" in fields:
        for key in ("record", "metric"):
            if key not in fields:
                raise ValueError(f"marker lacks '{key}='")
        return {
            "record": fields["record"],
            "benchmarks": fields["benchmarks"].split(","),
            "metric": fields["metric"],
        }
    for key in ("record", "git_dirty", "seed", "workload", "metrics"):
        if key not in fields:
            raise ValueError(f"marker lacks '{key}='")
    if fields["git_dirty"] not in ("true", "false"):
        raise ValueError("git_dirty must be true or false")
    return {
        "record": fields["record"],
        "dirty": fields["git_dirty"] == "true",
        "seed": int(fields["seed"]),
        "trace": int(fields.get("trace", "0")),
        "workload": fields["workload"],
        "metrics": fields["metrics"].split(","),
    }


def cells(row):
    return [c.strip() for c in row.strip().strip("|").split("|")]


def benchmark_values(sel, record):
    """(value, is_time) per named benchmark; times are in nanoseconds."""
    by_name = {b["name"]: b for b in record["benchmarks"]}
    values = []
    for name in sel["benchmarks"]:
        if name not in by_name:
            raise ValueError(f"{sel['record']} has no benchmark {name}")
        bench, metric = by_name[name], sel["metric"]
        if metric not in bench:
            raise ValueError(f"benchmark {name} has no '{metric}'")
        if metric in TIMES:
            values.append((bench[metric] * NANOS[bench["time_unit"]], True))
        else:
            values.append((bench[metric], False))
    return values


def expected(sel, records):
    """(value, is_time) for each checked cell of the row, in order."""
    path = ROOT / sel["record"]
    if path not in records:
        records[path] = json.loads(path.read_text())
    if "benchmarks" in sel:
        return benchmark_values(sel, records[path])
    runs = [r for r in records[path]["runs"]
            if r["provenance"]["git_dirty"] == sel["dirty"]
            and r["seed"] == sel["seed"] and r["trace"] == sel["trace"]
            and sel["workload"] in r["workloads"]]
    if not runs:
        raise ValueError(f"{sel['record']} has no run matching the marker")
    return [(statistics.median(
                 r["workloads"][sel["workload"]]["metrics"][m]["value"]
                 for r in runs), False)
            for m in sel["metrics"]]


def check_row(row, sel, records):
    errors = []
    values = expected(sel, records)
    names = sel.get("benchmarks") or sel["metrics"]
    printed = cells(row)[-len(names):]
    for name, (value, is_time), cell in zip(names, values, printed):
        match = CELL.match(cell)
        if not match:
            errors.append(f"{name}: cannot read the number in '{cell}'")
            continue
        number, scale = match.group(1), (match.group(2) or "").strip()
        unit = (match.group(3) or "").strip()
        if is_time:
            if scale or unit not in NANOS:
                errors.append(f"{name}: '{cell}' needs a time unit "
                              f"({', '.join(NANOS)})")
                continue
            value /= NANOS[unit]
        else:
            value /= SCALE[scale]
        digits = len(number.split(".")[1]) if "." in number else 0
        want = f"{value:.{digits}f}"
        if want != number:
            shown = unit if is_time else scale
            errors.append(f"{name}: printed {cell!r}, the record gives "
                          f"{want}{' ' + shown if shown else ''}")
    return errors


def main(argv):
    if len(argv) != 2:
        print("usage: check_perf_claims.py FILE.md", file=sys.stderr)
        return 2
    doc = Path(argv[1])
    lines = doc.read_text().splitlines()
    records, failures, claims = {}, 0, 0
    table = []  # (line number, text) of the current table's body rows

    def close_table():
        nonlocal failures
        marked = [n for n, text in table if MARKER.search(text)]
        if marked:
            for n, text in table:
                if not MARKER.search(text):
                    print(f"{doc}:{n}: row of a checked table has no "
                          "perf-claim marker", file=sys.stderr)
                    failures += 1
        table.clear()

    for n, text in enumerate(lines, start=1):
        if not text.startswith("|"):
            close_table()
            continue
        if re.match(r"^\|[\s:|-]+\|$", text):  # header separator
            table.clear()
            continue
        table.append((n, text))
        marker = MARKER.search(text)
        if not marker:
            continue
        claims += 1
        try:
            errors = check_row(text, parse_marker(marker.group(1)), records)
        except (OSError, KeyError, ValueError) as exc:
            errors = [f"{type(exc).__name__}: {exc}"]
        for error in errors:
            print(f"{doc}:{n}: {error}", file=sys.stderr)
        failures += len(errors)
    close_table()
    if claims == 0:
        print(f"{doc}: no perf-claim markers", file=sys.stderr)
        return 1
    print(f"{doc}: {claims} rows checked, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
