"""Steadiness check: run the benchmark once per seed and report spreads.

For each workload this runs ``run.py`` once per seed, each run in its own
process, appends every result to ``--out``, and
prints, per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(interquartile range over median) against the metric's bound.  A spread
above a third of the bound is marked, because two run sets of the same
code must agree within the bound.

Usage, from the repository root::

    python3 perfbench/sweep.py --workload scale-stream --seeds 1-10 \\
        --out perfbench/results/scale-stream.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402
from metrics import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``3,5,9``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    steady = True
    for name in names:
        results = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0", "--out", str(args.out)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(args.out.read_text().splitlines()[-1])
            results.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in result["metrics"].items()
            ) + " study_s calls: " + " ".join(
                f"{v:.2f}" for v in result["samples"]["study_s"]
            ), flush=True)
        print(f"\n{name}: {len(results)} runs, seeds {args.seeds}")
        for metric, unit, _, bound in END_TO_END:
            values = [r["metrics"][metric] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = spread(values)
            mark = "" if share < bound / 3 else "  <-- above bound/3"
            if metric != "setup_s" and share >= bound / 3:
                steady = False
            print(f"  {metric:<12s} median {q2:10.4f} {unit:<4s} q1 {q1:.4f}"
                  f" q3 {q3:.4f} spread {share:6.2%} (bound {bound:.0%})"
                  f"{mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
