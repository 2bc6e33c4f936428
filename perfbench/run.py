"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload golden --seed 2018 --seconds 20
    python3 perfbench/run.py --workload scale-stream --seed 7 --trace 1
    python3 perfbench/run.py                      # every workload, untraced

Each sample is one study call in a fresh ``study.py`` process.  The run
keeps starting samples until ``--seconds`` are used up (at least
``MIN_CALLS``), checks every call's archive fingerprint against the
seed's reference, and prints each metric by name and unit followed, as
the last stdout line, by one JSON object::

    {"correct": true, "attempted": 54, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the calls);
``--trace 1`` alternates traced and untraced calls and reports the
per-layer table.  The exit code is 0 when every fingerprint matched and
no unit failed, 1 otherwise, and 2 (with no result) when the program
under test is missing or a study child fails or overruns.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    end_to_end_samples,
    fold_layers,
    quartiles,
)
from workloads import (  # noqa: E402
    GOLDEN_FINGERPRINT,
    GOLDEN_SEED,
    WORKLOADS,
)

#: Fewest study calls per run, however short ``--seconds`` is.
MIN_CALLS = 2
#: Fewest traced calls per traced run (counts are compared across them).
MIN_TRACED = 2
#: Every child of one run is stopped this many seconds after the run began.
RUN_LIMIT_S = 170.0
#: Where references, checkpoints and per-call scratch space live.
STATE = ROOT / ".perfbench"


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of the program and the benchmark (cache key)."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """``HEAD`` (with ``-dirty``), or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def provenance(digest: str) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": digest[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(argv: list[str], deadline: float) -> dict:
    """Run ``study.py`` with *argv*; return its last stdout line as JSON.

    The child leads its own process group, so stopping it at *deadline*
    (a ``time.monotonic()`` value) stops its pool workers along with it.
    """
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "study.py"), *argv,
               "--spawned-at", repr(spawned_at)]
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"study child timed out: {' '.join(argv)}")
    if child.returncode != 0:
        raise RuntimeError(
            f"study child failed ({child.returncode}): {' '.join(argv)}\n"
            + err[-2000:]
        )
    record = json.loads(out.strip().splitlines()[-1])
    record["child_s"] = time.monotonic() - spawned_at
    return record


def cache_entry(workload, seed: int, digest: str) -> pathlib.Path:
    """Per-seed state, under a directory keyed by the source hash."""
    return STATE / f"cache-{digest[:16]}" / workload.reference_key(seed)


def reference_for(workload, seed: int, digest: str, deadline: float) -> dict:
    """The seed's reference, computed once and cached by source hash."""
    entry = cache_entry(workload, seed, digest)
    ref_file = entry / "reference.json"
    if ref_file.exists():
        return json.loads(ref_file.read_text())
    if not workload.generated and seed == GOLDEN_SEED:
        return {"fingerprint": GOLDEN_FINGERPRINT, "pinned": True}
    for stale in STATE.glob("cache-*"):
        if stale != entry.parent:
            shutil.rmtree(stale, ignore_errors=True)
    staging = entry.with_name(f"{entry.name}.tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    try:
        reference = run_child([
            "prepare", "--workload", workload.name, "--seed", str(seed),
            "--work-dir", str(staging),
        ], deadline)
    except RuntimeError:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    reference.pop("child_s")
    reference["pinned"] = False
    (staging / "reference.json").write_text(json.dumps(reference))
    shutil.rmtree(entry, ignore_errors=True)
    staging.rename(entry)
    return reference


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, trace: bool,
            digest: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    reference = reference_for(workload, seed, digest, deadline)
    entry = cache_entry(workload, seed, digest)
    checkpoint = entry / "checkpoint"
    scratch = STATE / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    try:
        while True:
            calls = untraced + traced
            if calls:
                elapsed = time.monotonic() - started
                expected = median([c["child_s"] for c in calls])
                enough = (
                    len(untraced) >= (1 if trace else MIN_CALLS)
                    and len(traced) >= (MIN_TRACED if trace else 0)
                )
                if enough and elapsed + expected > seconds:
                    break
            mode = "timed"
            if trace and len(traced) <= len(untraced):
                mode = "traced"
            record = run_child([
                mode, "--workload", workload.name, "--seed", str(seed),
                "--reference", reference["fingerprint"],
                "--checkpoint", str(checkpoint),
                "--work-dir", str(scratch / f"call-{len(calls)}"),
            ], deadline)
            (traced if mode == "traced" else untraced).append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    calls = untraced + traced
    mismatched = [c for c in calls if not c["fingerprint_ok"]]
    attempted = sum(c["units_attempted"] for c in calls)
    failed = sum(
        c["units_attempted"] if not c["fingerprint_ok"] else c["units_failed"]
        for c in calls
    )
    first = calls[0]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "inputs": {
            **workload.sizes(),
            "providers": first["providers"],
            "units": first["units"],
            "vantage_points": first["vantage_points"],
            "units_executed": first["units_attempted"],
            "vantage_points_executed": first["vantage_points_executed"],
        },
        "reference": reference,
        "calls": {"untraced": len(untraced), "traced": len(traced)},
        "measured_s": time.monotonic() - started,
        "correct": not mismatched,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "fingerprints": sorted({c["fingerprint"] for c in calls}),
        "samples": end_to_end_samples(untraced),
    }
    if trace:
        layers, drift = fold_layers(traced, untraced)
        drift += count_drift(entry / f"counts-{workload.name}.json", layers)
        layers["trace.count_drift"] = len(drift)
        result["metrics"] = layers
        result["count_drift"] = drift
    else:
        result["metrics"] = {
            name: median(values)
            for name, values in result["samples"].items()
        }
    return result


def count_drift(path: pathlib.Path, layers: dict) -> list[tuple]:
    """Differences from the first traced run of this workload and seed.

    The first traced run records its exact counts beside the seed's
    reference; every later traced run of the same code must repeat them.
    """
    counts = {name: layers[name] for name in EXACT_COUNTS}
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    first = json.loads(path.read_text())
    return [
        (name, first.get(name), counts[name])
        for name in EXACT_COUNTS
        if first.get(name) != counts[name]
    ]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def render(result: dict, prov: dict) -> str:
    inputs = result["inputs"]
    ref = result["reference"]
    lines = [
        f"perfbench workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']}",
        "provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()),
        "inputs: " + " ".join(f"{k}={v}" for k, v in inputs.items()),
        f"calls: {result['calls']['untraced']} untraced, "
        f"{result['calls']['traced']} traced, in "
        f"{result['measured_s']:.1f} s",
        f"fingerprint: {'ok' if result['correct'] else 'MISMATCH'} "
        f"(reference {ref['fingerprint'][:12]}, "
        f"{'pinned' if ref.get('pinned') else 'computed in memory'}; "
        f"seen {', '.join(f[:12] for f in result['fingerprints'])})",
    ]
    if result["trace"]:
        for name, unit in PER_LAYER:
            value = result["metrics"][name]
            lines.append(f"  {name:<40s} {value:>14.6g} {unit}")
        for name, first, other in result["count_drift"]:
            lines.append(f"  COUNT DRIFT {name}: {first} then {other}")
    else:
        for name, unit, _, _ in END_TO_END:
            samples = result["samples"][name]
            q1, q3 = quartiles(samples)
            lines.append(
                f"  {name:<12s} {result['metrics'][name]:>12.4f} {unit:<4s}"
                f" median of {len(samples)}, q1 {q1:.4f}, q3 {q3:.4f}"
            )
        lines.append(
            f"  {'fail_ratio':<12s} {result['fail_ratio']:>12.4f} ratio"
            f" {result['failed']} of {result['attempted']} units"
        )
    return "\n".join(lines)


def result_line(result: dict) -> str:
    units = dict(PER_LAYER) if result["trace"] else {
        name: unit for name, unit, _, _ in END_TO_END
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the study benchmark (see perfbench/README.md)."
    )
    parser.add_argument(
        "--workload", default="all", choices=["all", *WORKLOADS]
    )
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write every result (samples, provenance) as JSON lines",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    digest = source_digest()
    prov = provenance(digest)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = measure(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                digest,
            )
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        result["provenance"] = prov
        print(render(result, prov))
        if args.out is not None:
            with args.out.open("a") as out:
                out.write(json.dumps(result, sort_keys=True) + "\n")
        if not result["correct"] or result["failed"]:
            status = 1
        print(result_line(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
