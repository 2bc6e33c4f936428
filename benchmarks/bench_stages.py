"""Stage-profiler overhead benchmark and CI gate.

The per-packet stage profiler (``repro study --profile-stages``,
``ObsConfig(stage_profile=True)``) brackets the delivery stages — route,
firewall, capture, latency, dispatch, encap plus the ``send`` residue —
at packet granularity, orders of magnitude more transitions than the
five coarse phases ``bench_profile.py`` gates.  Two things keep it
affordable, and this module measures both claims:

- **disabled** (the shipped default): the hook sites hide behind the
  same ``internet.obs is None`` check as every other obs feature, so the
  disabled path stays inside the <= 3% A/A gate
  (``bench_hot_path.py::test_obs_overhead_gate``) untouched;
- **enabled**: stage *counts* are two dict operations per enter; the
  stage ``perf_counter`` pairs only run for a deterministic 1-in-N
  sample of sends (``stage_sample``, default 8).  Stage profiling also
  opens the phase frames ``bench_profile.py`` gates (one profiler), so
  this mode pays for both.  The gate here holds it to <= 5% over the
  uninstrumented baseline.

Protocol is the paired A/B from ``bench_profile.py``: modes interleave
round-robin, overheads compare within a round, the gate takes the best
paired ratio.  Results land in ``BENCH_stages.json`` at the repository
root for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_stages.json"

#: CI gate: a stage-profiler-enabled study must stay within this
#: fraction of the uninstrumented baseline.
STAGES_OVERHEAD_LIMIT_PCT = 5.0

STUDY_SEED = 2018
STUDY_PROVIDERS = ["Seed4.me", "PureVPN", "MyIP.io"]
STUDY_MAX_VPS = 2
# Five rounds: a true A/B (the stages mode does strictly more work), so
# one noisy baseline round must not be able to swing the min.
STUDY_RUNS = 5


def bench_stages_overhead(runs: int = STUDY_RUNS) -> dict[str, object]:
    """Golden-study wall clock with the stage profiler off vs on."""
    from repro.obs.config import ObsConfig
    from repro.runtime.executor import StudyExecutor

    modes: dict[str, object] = {
        "baseline": None,                    # obs never passed at all
        "metrics": ObsConfig(metrics=True),  # the substrate stages ride on
        "stages": ObsConfig(stage_profile=True),
    }
    walls: dict[str, list[float]] = {name: [] for name in modes}
    stage_rows: dict[str, dict] = {}
    for _ in range(runs):
        for name, obs in modes.items():
            started = time.perf_counter()
            executor = StudyExecutor(
                seed=STUDY_SEED,
                providers=STUDY_PROVIDERS,
                max_vantage_points=STUDY_MAX_VPS,
                obs=obs,
            )
            executor.run()
            walls[name].append(time.perf_counter() - started)
            if name == "stages" and not stage_rows:
                from repro.obs.stages import stage_breakdown

                stage_rows = {
                    row["stage"]: {
                        "calls": row["calls"],
                        "sampled": row["sampled"],
                        "est_ms": round(row["est_ms"], 1),
                        "share": round(row["share"], 4),
                    }
                    for row in stage_breakdown(executor.metrics.snapshot())
                }

    best = {name: min(samples) for name, samples in walls.items()}

    def overhead(mode: str, over: str) -> float:
        ratios = [
            walls[mode][i] / walls[over][i]
            for i in range(len(walls[mode]))
        ]
        return round((min(ratios) - 1.0) * 100.0, 2)

    return {
        "generated_by": "benchmarks/bench_stages.py",
        "seed": STUDY_SEED,
        "providers": STUDY_PROVIDERS,
        "max_vantage_points": STUDY_MAX_VPS,
        "runs_per_mode": runs,
        "wall_seconds_best": {
            name: round(value, 3) for name, value in best.items()
        },
        "wall_seconds_all": {
            name: [round(w, 3) for w in samples]
            for name, samples in walls.items()
        },
        "metrics_overhead_pct": overhead("metrics", "baseline"),
        "stages_overhead_pct": overhead("stages", "baseline"),
        "stages_marginal_pct": overhead("stages", "metrics"),
        "stages_overhead_limit_pct": STAGES_OVERHEAD_LIMIT_PCT,
        "stage_breakdown": stage_rows,
    }


def write_results(
    results: dict[str, object], path: Path = OUTPUT_PATH
) -> None:
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def test_stages_overhead_gate():
    """CI gate: the enabled stage profiler costs <= 5% wall-clock.

    The profiler's whole case is that sampling makes per-packet
    attribution cheap enough to leave on; this gate is that case stated
    as an assert.
    """
    results = bench_stages_overhead()
    write_results(results)
    assert (
        results["stages_overhead_pct"] <= STAGES_OVERHEAD_LIMIT_PCT
    ), (
        f"stage profiler overhead {results['stages_overhead_pct']}% "
        f"exceeds {STAGES_OVERHEAD_LIMIT_PCT}% "
        f"(walls: {results['wall_seconds_all']})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: one round per mode (same schema, ~5x faster)",
    )
    options = parser.parse_args(argv)
    results = bench_stages_overhead(runs=1 if options.quick else STUDY_RUNS)
    write_results(results)
    json.dump(results, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
