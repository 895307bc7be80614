"""Compare two result files of ``run.py --out``: one row per workload and metric.

    python3 benchmarks/e2e/compare.py OLD.json NEW.json [--noise FILE]

Each row gives both values (medians over the file's runs), the ratio with its
base, the bound and a verdict.  Gated are the ``end_to_end`` metrics of
``BENCHMARK.json`` on every workload, the user-visible metrics only some
workloads have (``GATES`` below), and the ones that must not rise at all
(``MUST_NOT_RISE``).  A metric is *unresolved* when its run-to-run spread is
wider than its bound.  The spread is the distance between the quartiles of
the two files' runs, each run as a share of its file's median; with fewer
than four runs between them it is the one ``run.py --repeat`` recorded in
``--noise`` (default ``results/BENCH_11.json``).  Exits non-zero on any
*worse* row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: User-visible metrics the driver cannot gate — it wants every end-to-end
#: metric from every workload, never 0, and steadier on this host than the
#: figures over all ops are — gated here wherever both files have them:
#: ``(name, better, bound)``.  Rate and median at the issue's 10 %; the tails
#: and the lag, where a stall that hits a minority of ops shows, at 25 %;
#: the byte ratio is an exact count.
GATES = (
    ("ops_per_s", "higher", 0.10),
    ("op_p50_ms", "lower", 0.10),
    ("first_row_p50_ms", "lower", 0.10),
    ("op_p95_ms", "lower", 0.25),
    ("op_p99_ms", "lower", 0.25),
    ("write_lag_p95_ms", "lower", 0.25),
    ("recovery_s", "lower", 0.25),
    ("stored_bytes_per_user_byte", "lower", 0.01),
)
#: Any rise is a regression: these are 0 when all is well.
MUST_NOT_RISE = ("failed_op_share", "lost_acked_commits")


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def values_of(document: dict, workload: str, metric: str) -> list[float]:
    return [
        run[workload]["metrics"][metric]["value"]
        for run in document["runs"]
        if metric in run.get(workload, {}).get("metrics", {})
    ]


def value_of(document: dict, workload: str, metric: str) -> float | None:
    """The median over the document's runs, or ``None`` when it has none."""
    values = values_of(document, workload, metric)
    return statistics.median(values) if values else None


def spread_of(documents: list[dict], workload: str, metric: str, noise: dict) -> float:
    """Quartile distance of the documents' runs around their own medians."""
    shares = []
    for document in documents:
        values = values_of(document, workload, metric)
        middle = statistics.median(values) if values else 0.0
        if middle:
            shares += [value / middle for value in values]
    if len(shares) < 4:
        return noise.get(workload, {}).get(metric, {}).get("spread", 0.0)
    low, _, high = statistics.quantiles(shares, n=4)
    return high - low


def verdict(old: float, new: float, better: str, bound: float, spread: float) -> str:
    worse_by = new / old - 1 if better == "lower" else old / new - 1
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -spread:
        return "better"
    return "same"


def compare(old: dict, new: dict, spec: dict, noise: dict) -> tuple[list[str], bool]:
    """The report lines, and whether anything got worse."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    gates = [(m["name"], m["better"], m["bound"], True) for m in spec["end_to_end"]]
    gates += [gate + (False,) for gate in GATES]
    lines = [f"{'workload':<20} {'metric':<27} {'old':>12} {'new':>12} {'new/old':>8} "
             f"{'bound':>6} {'spread':>7}  verdict"]
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        for name, better, bound, everywhere in gates:
            before, after = value_of(old, workload, name), value_of(new, workload, name)
            if before is None and after is None and not everywhere:
                continue  # this workload does not produce the metric
            if before is None or after is None:
                lines.append(f"{workload:<20} {name:<27} missing in one file")
                bad = True
                continue
            spread = spread_of([old, new], workload, name, noise)
            word = verdict(before, after, better, bound, spread)
            bad = bad or word == "worse"
            lines.append(
                f"{workload:<20} {name:<27} {before:>12.6g} {after:>12.6g} "
                f"{after / before:>8.3f} {bound:>6.2f} {spread:>7.3f}  {word}"
                f"  ({units[name]}, base {before:.6g})"
            )
        for name in MUST_NOT_RISE:
            before, after = value_of(old, workload, name), value_of(new, workload, name)
            if before is None and after is None:
                continue
            word = "worse" if (after or 0.0) > (before or 0.0) else "same"
            bad = bad or word == "worse"
            lines.append(f"{workload:<20} {name:<27} {before or 0.0:>12.6g} {after or 0.0:>12.6g} "
                         f"{'':>8} {'0':>6} {'':>7}  {word}  (must not rise)")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--noise", default=str(HERE / "results" / "BENCH_11.json"))
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    noise = load(args.noise)["noise"] if Path(args.noise).exists() else {}
    lines, bad = compare(old, new, load(ROOT / "BENCHMARK.json"), noise)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
