"""Compare two sets of benchmark runs, and prove the comparison can fail.

A *run set* is the JSON lines ``run.py --out FILE`` (or ``sweep.py``)
writes, one result per run.  For every workload and end-to-end metric the
gate takes each set's median over its runs and the parent set's spread
(interquartile range over median)::

    regression   the change's median is worse than the parent's by more
                 than the metric's bound
    unresolved   no regression, but the parent's own spread exceeds the
                 bound, so the runs cannot tell
    ok           otherwise

Usage, from the repository root::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --self-test [RUNS.jsonl]

``--self-test`` checks the gate itself: an A/A split of one run set must
pass, and the same set shifted by one and a half bounds in the worse
direction must be flagged as a regression on every metric.  Given a run
set measured on this machine (``perfbench/results/*.jsonl``) it uses that
set's real spread; without one it uses a seeded synthetic set.  Exit code
0 means the gate passed A/A and failed the shifted set.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END  # noqa: E402

SPEC = {name: (better, bound) for name, _, better, bound in END_TO_END}


def load(path: pathlib.Path) -> list[dict]:
    """Untraced results from a JSON-lines run set."""
    runs = []
    for line in path.read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if not result.get("trace"):
                runs.append(result)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def by_workload(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for result in runs:
        metrics = out.setdefault(result["workload"], {})
        for name in SPEC:
            metrics.setdefault(name, []).append(result["metrics"][name])
    return out


def gate(parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per (workload, metric) present in both sets."""
    before = by_workload(parent)
    after = by_workload(change)
    rows = []
    for workload in sorted(set(before) & set(after)):
        for name, (better, bound) in SPEC.items():
            old = statistics.median(before[workload][name])
            new = statistics.median(after[workload][name])
            worse = (new - old if better == "lower" else old - new) / old
            noise = spread(before[workload][name])
            verdict = (
                "regression" if worse > bound
                else "unresolved" if noise > bound
                else "ok"
            )
            rows.append({
                "workload": workload, "metric": name, "parent": old,
                "change": new, "worse": worse, "bound": bound,
                "spread": noise, "verdict": verdict,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<13s} {'metric':<12s} {'parent':>10s} {'change':>10s}"
        f" {'worse':>7s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<13s} {r['metric']:<12s} {r['parent']:>10.4f}"
            f" {r['change']:>10.4f} {r['worse']:>+7.1%} {r['bound']:>6.0%}"
            f" {r['spread']:>7.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def synthetic_runs(count: int = 10, noise: float = 0.03,
                   seed: int = 2018) -> list[dict]:
    """A seeded run set with ``noise`` relative scatter per metric."""
    rng = random.Random(seed)
    base = {"study_s": 9.0, "cpu_s": 17.0, "vp_per_s": 6.6,
            "peak_rss_mb": 95.0, "setup_s": 0.4}
    return [
        {"workload": "synthetic", "trace": 0, "metrics": {
            name: value * (1.0 + rng.gauss(0.0, noise))
            for name, value in base.items()
        }}
        for _ in range(count)
    ]


def shifted(runs: list[dict], factor: float) -> list[dict]:
    """Every metric moved ``factor`` bounds in its worse direction."""
    out = []
    for result in runs:
        metrics = {}
        for name, value in result["metrics"].items():
            if name not in SPEC:
                continue
            better, bound = SPEC[name]
            step = 1.0 + factor * bound
            metrics[name] = value * step if better == "lower" else value / step
        out.append({**result, "metrics": metrics})
    return out


def self_test(runs: list[dict]) -> bool:
    """A/A halves pass; the set shifted 1.5 bounds fails on every metric."""
    first, second = runs[0::2], runs[1::2]
    aa = gate(first, second)
    moved = gate(runs, shifted(runs, 1.5))
    print("A/A (alternate runs of one set):")
    print(render(aa))
    print("\nshifted by 1.5 bounds in the worse direction:")
    print(render(moved))
    aa_ok = all(row["verdict"] != "regression" for row in aa)
    caught = all(row["verdict"] == "regression" for row in moved)
    print(f"\nA/A passes: {aa_ok}; every shifted metric flagged: {caught}")
    return aa_ok and caught


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark run sets (see perfbench/README.md)."
    )
    parser.add_argument("runs", nargs="*", type=pathlib.Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        sets = args.runs or sorted((HERE / "results").glob("*.jsonl"))
        ok = self_test(synthetic_runs())
        for path in sets:
            print(f"\n== measured run set {path.name} ==")
            ok = self_test(load(path)) and ok
        return 0 if ok else 1
    if len(args.runs) != 2:
        parser.error("give PARENT.jsonl and CHANGE.jsonl, or --self-test")
    rows = gate(load(args.runs[0]), load(args.runs[1]))
    print(render(rows))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
