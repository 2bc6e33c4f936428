"""One study call in a fresh process: the benchmark's unit of measurement.

``run.py`` starts this script once per sample, so every timed call pays
what a ``repro study`` command pays (imports, world build, template
pickling) and nothing warmed by an earlier call.  Modes:

``prepare``
    Compute the reference archive fingerprint for a seed (and, for the
    generated population, the half-journalled resume checkpoint) with the
    plain in-memory sequential path.  Never timed.
``timed``
    One untraced study call; prints set-up time, wall and CPU time, peak
    RSS, unit counts and whether the archive fingerprint matched.
``traced``
    The same call with the layer tracer, the bus probe and the phase and
    stage profilers on; adds the per-layer totals.

The last stdout line is one JSON object.  Usage (from the repository
root; ``run.py`` is the entry point, this script is its child)::

    python3 perfbench/study.py timed --workload golden --seed 2018 \\
        --spawned-at 0 --reference <fingerprint> --work-dir <dir>
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, prepare_reference  # noqa: E402

#: A sampler interval long enough that it never ticks during a call:
#: setting one only makes the executor publish ``WorkerSample`` events.
_QUIET_SAMPLER_S = 3600.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_call(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    work = pathlib.Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    # Input generation: the resume workload starts from a fresh copy of
    # the seed's half-journalled checkpoint.
    checkpoint = None
    if workload.resume:
        checkpoint = work / "checkpoint"
        shutil.copytree(args.checkpoint, checkpoint)

    from repro.core.archive import archive_fingerprint, write_study_archive
    from repro.runtime.events import EventBus

    extra: dict = {}
    tracer = probe = None
    if args.mode == "traced":
        from layers import BusProbe, LayerTracer
        from repro.obs.config import ObsConfig

        tracer = LayerTracer()
        tracer.install(work)
        probe = BusProbe()
        bus = EventBus()
        bus.subscribe(probe, replay=False)
        extra = dict(
            bus=bus,
            obs=ObsConfig(profile=True, stage_profile=True),
            sample_interval_s=_QUIET_SAMPLER_S,
        )
    executor = workload.executor(
        args.seed,
        checkpoint_dir=str(checkpoint) if checkpoint else None,
        **extra,
    )
    setup_s = time.monotonic() - args.spawned_at

    archive = work / "archive"
    if tracer is not None:
        tracer.active = True
    cpu_before = _cpu_s()
    started = time.perf_counter()
    if workload.streamed:
        outcome = executor.run_streamed(archive)
    else:
        outcome = executor.run()
    returned_at = time.perf_counter()
    cpu_s = _cpu_s() - cpu_before
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.active = False

    if not workload.streamed:
        write_study_archive(outcome, archive)
    fingerprint = archive_fingerprint(archive)

    plan = executor.plan
    stats = executor.stats
    executed = set(stats.unit_wall_ms)
    record = {
        "mode": args.mode,
        "setup_s": setup_s,
        "study_s": returned_at - started,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "providers": len(plan.providers),
        "units": len(plan.units),
        "vantage_points": plan.total_vantage_points,
        "units_resumed": stats.skipped_units,
        "units_attempted": len(plan.units) - stats.skipped_units,
        "units_failed": len(plan.units) - stats.skipped_units - len(executed),
        "vantage_points_executed": sum(
            unit.vantage_point_count
            for unit in plan.units
            if unit.unit_id in executed
        ),
        "fingerprint": fingerprint,
        "fingerprint_ok": fingerprint == args.reference,
    }
    if tracer is not None:
        from layers import profiler_rows

        record["layers"] = tracer.collect()
        record["events"] = probe.summary(executor.workers, returned_at)
        record["profilers"] = profiler_rows(executor.metrics.snapshot())
    shutil.rmtree(work)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("prepare", "timed", "traced"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--reference", default="")
    parser.add_argument("--checkpoint", default="")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        record = prepare_reference(
            WORKLOADS[args.workload], args.seed, pathlib.Path(args.work_dir)
        )
    else:
        record = run_call(args)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
