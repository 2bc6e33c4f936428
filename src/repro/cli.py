"""Command-line interface.

The paper ships its test suite as a tool others can run against arbitrary
VPN services; this CLI is the reproduction's equivalent front door:

    python -m repro list                       # the 62-provider catalogue
    python -m repro audit Seed4.me             # full audit of one provider
    python -m repro study [--max-vps N] [--providers NAME ...]
                          [--source SPEC] [--shards N] [--stream]
                          [--archive DIR] [--workers N] [--resume DIR]
                          [--snapshots N] [--progress] [--profile]
                          [--profile-stages] [--dashboard] [--ledger [PATH]]
                          [--trace FILE] [--metrics] [--metrics-out FILE]
                          [--flight-recorder N]
    python -m repro ledger show ledger.jsonl   # a run's numbers from its log
    python -m repro trace summarize out.jsonl  # span-tree / packet summary
    python -m repro trace flows out.jsonl      # per-packet causal hop chains
    python -m repro trace query 'kind=packet_send status=delivered' out.jsonl
    python -m repro trace diff a.jsonl b.jsonl # span-exact run comparison
    python -m repro report explain Seed4.me [--json]  # verdicts + evidence
    python -m repro ecosystem                  # Section 4 statistics
    python -m repro ecosystem generate --providers 1000 --out spec.json
    python -m repro experiments                # table/figure registry
    python -m repro serve [--port N] [--state-dir DIR]   # audit daemon
    python -m repro client submit|status|watch|top|fetch|cancel|list|trace
    python -m repro checkpoint prune DIR       # drop crash-resume state
    python -m repro archive fingerprint DIR    # content hash of an archive

Flags are folded into one frozen :class:`repro.config.StudyConfig`, the
same object the Python API takes — the CLI is a thin argv-to-config shim.

``repro study`` installs a SIGTERM/SIGINT handler that drains instead of
dying: in-flight units finish, the checkpoint flushes, and the process
exits ``128 + signum`` — re-running with the same ``--resume`` directory
(or, for ``--stream``, the same ``--archive``) continues where it stopped.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Active-measurement audit of (simulated) commercial VPN "
            "services — reproduction of the IMC 2018 VPN ecosystem study."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 62 catalogued providers")

    audit = sub.add_parser("audit", help="audit one provider")
    audit.add_argument("provider", help="provider name (see 'list')")
    audit.add_argument(
        "--max-vps", type=int, default=5,
        help="vantage points to test fully (default 5)",
    )
    audit.add_argument("--seed", type=int, default=2018)

    study = sub.add_parser("study", help="run the full 62-provider study")
    study.add_argument("--max-vps", type=int, default=5)
    study.add_argument("--seed", type=int, default=2018)
    study.add_argument(
        "--providers", nargs="+", metavar="NAME",
        help="restrict the study to these providers (default: all 62)",
    )
    study.add_argument(
        "--source", metavar="SPEC",
        help="what to measure: 'catalog', 'generated:COUNT[:SEED[:VPS]]', "
             "a spec file written by 'repro ecosystem generate', or a "
             "comma-separated provider list (exclusive with --providers)",
    )
    study.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split world construction into N provider slices so workers "
             "hold one slice each instead of the whole world (default 1)",
    )
    study.add_argument(
        "--stream", action="store_true",
        help="write the archive incrementally as units finish (flat "
             "memory; requires --archive, where a series streams each "
             "snapshot into snapshot-NN)",
    )
    study.add_argument(
        "--archive", metavar="DIR",
        help="write per-provider JSON results to this directory",
    )
    study.add_argument(
        "--workers", type=int, default=1,
        help="worker pool size (default 1 = sequential)",
    )
    study.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="worker pool backend (default thread)",
    )
    study.add_argument(
        "--resume", metavar="DIR",
        help="checkpoint directory; units found there are skipped, new "
             "ones recorded, and it ends as the study's archive",
    )
    study.add_argument(
        "--snapshots", type=int, default=1, metavar="N",
        help="run the study N times as a longitudinal schedule and "
             "report verdict changes between snapshots (default 1)",
    )
    study.add_argument(
        "--progress", action="store_true",
        help="print per-unit progress lines to stderr",
    )
    study.add_argument(
        "--profile", action="store_true",
        help="attribute wall-clock to simulator phases (dns/browser/tls/"
             "delivery/analysis) and print the breakdown after the study",
    )
    study.add_argument(
        "--profile-stages", action="store_true", dest="profile_stages",
        help="also attribute per-packet delivery cost to stages (route/"
             "firewall/capture/latency/dispatch/encap), nested under the "
             "delivery phase; implies --profile; sampled, deterministic",
    )
    study.add_argument(
        "--stage-sample", type=int, default=8, metavar="N",
        help="time 1 in N top-level sends under --profile-stages "
             "(counts stay exact; default 8, 1 = time everything)",
    )
    study.add_argument(
        "--dashboard", action="store_true",
        help="render a live in-terminal dashboard (per-shard progress, "
             "units/sec, ETA, worker RSS, hottest stages) on stderr",
    )
    study.add_argument(
        "--ledger", nargs="?", const="auto", metavar="PATH",
        help="write the run's event log (unit lifecycle, resource "
             "samples, metrics deltas) as JSONL; bare --ledger writes "
             "ledger.jsonl next to --archive (or the working directory)",
    )
    study.add_argument(
        "--trace", metavar="FILE",
        help="write a deterministic JSONL span trace of the study to FILE "
             "(one span/event per line; see 'repro trace summarize')",
    )
    study.add_argument(
        "--metrics", action="store_true",
        help="collect execution metrics (packets, DNS queries, retries, "
             "per-test wall time) and print the aggregate after the study",
    )
    study.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the merged metrics snapshot as JSON to FILE "
             "(implies metrics collection)",
    )
    study.add_argument(
        "--flight-recorder", type=int, default=0, metavar="N",
        help="keep the last N packet events per host and dump them into "
             "the trace when a connect/retry budget is exhausted",
    )

    trace = sub.add_parser(
        "trace", help="inspect a JSONL trace written by 'study --trace'"
    )
    trace_sub = trace.add_subparsers(dest="trace_cmd", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize", help="span/packet rollup of one trace"
    )
    trace_sum.add_argument("file", help="path to the JSONL trace file")
    trace_flows = trace_sub.add_parser(
        "flows", help="reconstruct per-packet causal hop chains"
    )
    trace_flows.add_argument("file", help="path to the JSONL trace file")
    trace_flows.add_argument(
        "--test", metavar="GLOB",
        help="only tests whose name matches this glob (e.g. 'dns_*')",
    )
    trace_flows.add_argument(
        "--max-flows", type=int, metavar="N",
        help="stop after printing N flows",
    )
    trace_query = trace_sub.add_parser(
        "query", help="filter records with 'key=value' terms (ANDed; "
                      "=/!= glob-match, </<=/>/>= compare numerically)",
    )
    trace_query.add_argument(
        "expression",
        help="e.g. 'kind=packet_send status=no_route host=*client*'",
    )
    trace_query.add_argument("file", help="path to the JSONL trace file")
    trace_diff = trace_sub.add_parser(
        "diff", help="compare two runs span-by-span (exact: seeded span "
                     "IDs align identical logical spans)",
    )
    trace_diff.add_argument("file_a", help="baseline JSONL trace")
    trace_diff.add_argument("file_b", help="candidate JSONL trace")

    ledger = sub.add_parser(
        "ledger", help="inspect an event log written by 'study --ledger' "
                       "or a served job's events.jsonl",
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_cmd", required=True)
    ledger_show = ledger_sub.add_parser(
        "show", help="replay one event log into the 'client top' table: "
                     "progress, workers, resource peaks, hottest stages",
    )
    ledger_show.add_argument("file", help="path to the event log JSONL file")
    ledger_show.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the numbers as machine-readable JSON",
    )

    report = sub.add_parser(
        "report", help="explainable views over audit verdicts"
    )
    report_sub = report.add_subparsers(dest="report_cmd", required=True)
    explain = report_sub.add_parser(
        "explain",
        help="audit one provider with tracing on and print the evidence "
             "chain behind every verdict",
    )
    explain.add_argument("provider", help="provider name (see 'list')")
    explain.add_argument("--max-vps", type=int, default=5)
    explain.add_argument("--seed", type=int, default=2018)
    explain.add_argument(
        "--all", action="store_true", dest="show_all",
        help="also print chains for clean (non-flagged) verdicts",
    )
    explain.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable evidence document (the same "
             "serialization the service's GET /results/{id}/evidence uses)",
    )

    ecosystem = sub.add_parser(
        "ecosystem",
        help="Section 4 ecosystem stats, or generate a parametric one",
    )
    # Optional subcommand: bare 'repro ecosystem' keeps its historical
    # meaning (the stats table).
    ecosystem_sub = ecosystem.add_subparsers(dest="ecosystem_cmd")
    ecosystem_sub.add_parser(
        "stats", help="print the Section 4 ecosystem stats (the default)"
    )
    generate = ecosystem_sub.add_parser(
        "generate",
        help="write a study-source spec for a generated ecosystem of "
             "fully auditable providers",
    )
    generate.add_argument(
        "--providers", type=int, required=True, metavar="N",
        help="how many providers to generate",
    )
    generate.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="generator seed (default: follow the study seed)",
    )
    generate.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the spec: a .json file, or a directory "
             "that gets ecosystem-spec.json",
    )
    generate.add_argument(
        "--vantage-points", type=int, default=4, metavar="K",
        help="vantage points per generated provider (default 4)",
    )

    sub.add_parser("experiments", help="list the table/figure registry")

    serve = sub.add_parser(
        "serve", help="run the audit service daemon (HTTP/JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = pick an ephemeral port; default 8321)",
    )
    serve.add_argument(
        "--state-dir", default="serve-state", metavar="DIR",
        help="durable job/result directory (default ./serve-state)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="shared worker-pool size for unit execution (default 2)",
    )
    serve.add_argument(
        "--max-active-jobs", type=int, default=2, metavar="N",
        help="jobs running concurrently on the shared pool (default 2)",
    )
    serve.add_argument(
        "--keep-checkpoints", action="store_true",
        help="keep the plan pin and journal in finished jobs' archives",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress the daemon's stderr log lines",
    )

    client = sub.add_parser(
        "client", help="talk to a running 'repro serve' daemon"
    )
    client.add_argument(
        "--endpoint", default="http://127.0.0.1:8321", metavar="URL",
        help="daemon base URL (default http://127.0.0.1:8321)",
    )
    client_sub = client.add_subparsers(dest="client_cmd", required=True)
    submit = client_sub.add_parser(
        "submit",
        help="submit a job; prints the bare job id on stdout "
             "(scripting-friendly: JOB=$(repro client submit ...))",
    )
    submit.add_argument(
        "kind", choices=["study", "recheck", "snapshots"],
        help="job type: full/subset study, single-provider re-check, "
             "or longitudinal snapshot series",
    )
    submit.add_argument(
        "--providers", nargs="+", metavar="NAME",
        help="restrict to these providers (recheck: exactly one)",
    )
    submit.add_argument(
        "--source", metavar="SPEC",
        help="study source spec, same syntax as 'repro study --source' "
             "(exclusive with --providers)",
    )
    submit.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard world construction on the daemon (default 1)",
    )
    submit.add_argument("--seed", type=int, default=2018)
    submit.add_argument("--max-vps", type=int, default=5)
    submit.add_argument(
        "--snapshots", type=int, default=1,
        help="snapshot count for a 'snapshots' job (>= 2)",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first; equal priorities run in submission order",
    )
    submit.add_argument("--label", help="free-form label for humans")
    submit.add_argument(
        "--trace", action="store_true",
        help="collect a span trace (rechecks always trace)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes; exit 0 only on 'completed'",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait limit in seconds (default 600)",
    )
    status = client_sub.add_parser("status", help="one job's state")
    status.add_argument("job_id")
    watch = client_sub.add_parser(
        "watch",
        help="follow a job's event stream live (replays missed events "
             "first; exits when the job reaches a terminal state)",
    )
    watch.add_argument("job_id")
    watch.add_argument(
        "--since", type=int, default=0, metavar="N",
        help="start cursor (default 0 = replay the full history)",
    )
    watch.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds (default: wait forever)",
    )
    watch.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one machine-readable event per line (the same frames "
             "the dashboard consumes) instead of rendered text",
    )
    top = client_sub.add_parser(
        "top",
        help="one job's dashboard numbers (progress, worker RSS, hottest "
             "stages) — the remote view of 'repro study --dashboard'",
    )
    top.add_argument("job_id")
    top.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw top document as JSON",
    )
    fetch = client_sub.add_parser(
        "fetch", help="print a stored result document as JSON"
    )
    fetch.add_argument("job_id")
    fetch.add_argument(
        "name", choices=["report", "evidence", "metrics", "fingerprint"],
    )
    cancel = client_sub.add_parser("cancel", help="cancel a job")
    cancel.add_argument("job_id")
    client_sub.add_parser("list", help="every job the daemon knows about")
    ctrace = client_sub.add_parser(
        "trace", help="query a job's stored span trace"
    )
    ctrace.add_argument("job_id")
    ctrace.add_argument(
        "expression",
        help="same syntax as 'repro trace query'",
    )

    checkpoint = sub.add_parser(
        "checkpoint", help="manage crash-resume checkpoints"
    )
    checkpoint_sub = checkpoint.add_subparsers(
        dest="checkpoint_cmd", required=True
    )
    prune = checkpoint_sub.add_parser(
        "prune",
        help="delete checkpoint state: a finished archive's plan pin and "
             "journal, an unfinished checkpoint whole, or every finished "
             "job's in a serve state directory; refuses non-checkpoints",
    )
    prune.add_argument("path", help="checkpoint or serve-state directory")

    archive = sub.add_parser(
        "archive", help="operate on study archives"
    )
    archive_sub = archive.add_subparsers(dest="archive_cmd", required=True)
    fingerprint = archive_sub.add_parser(
        "fingerprint",
        help="print the content hash of an archive directory (sha256 over "
             "sorted *.json; what the service and CI compare)",
    )
    fingerprint.add_argument("path", help="archive directory")

    guide = sub.add_parser(
        "guide",
        help="run audits and print the measured vpnselection.guide ranking",
    )
    guide.add_argument(
        "providers", nargs="*",
        help="providers to rank (default: a representative subset)",
    )
    guide.add_argument("--seed", type=int, default=2018)
    return parser


def cmd_list() -> int:
    from repro.reporting.tables import render_table
    from repro.vpn.catalog import build_catalog

    catalog = build_catalog()
    rows = [
        [
            name,
            profile.subscription.value,
            profile.client_type.value,
            len(profile.vantage_points),
            len(profile.virtual_vantage_points()),
        ]
        for name, profile in sorted(catalog.items())
    ]
    print(render_table(
        ["Provider", "Subscription", "Client", "VPs", "Virtual"],
        rows,
        title="Catalogued providers",
    ))
    return 0


def _unknown_providers(names: Sequence[str]) -> bool:
    """Print one error line naming the *names* not in the catalogue."""
    from repro.vpn.catalog import catalog_names

    unknown = [name for name in names if name not in catalog_names()]
    if unknown:
        print(f"error: unknown provider(s): {', '.join(unknown)}; "
              f"see 'repro list'", file=sys.stderr)
    return bool(unknown)


def cmd_audit(provider: str, max_vps: int, seed: int) -> int:
    from repro.api import audit_provider
    from repro.config import StudyConfig

    if _unknown_providers([provider]):
        return 2
    try:
        report = audit_provider(
            provider,
            config=StudyConfig(seed=seed, max_vantage_points=max_vps),
        )
    except ValueError as exc:  # an out-of-range flag (--max-vps 0)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def cmd_study(
    config,
    archive: Optional[str],
    dashboard: bool = False,
    ledger_path: Optional[str] = None,
) -> int:
    import signal
    import threading

    from repro.api import run_full_study, run_longitudinal_study
    from repro.core.archive import ArchiveReadError
    from repro.runtime.checkpoint import CheckpointMismatchError
    from repro.runtime.events import EventBus, EventLog
    from repro.runtime.executor import StudyInterrupted

    series = config.snapshots > 1
    if series:
        # Each finished snapshot's archive lands in <archive>/snapshot-NN.
        config = config.replace(archive_dir=archive)
    run = run_longitudinal_study if series else run_full_study

    # Graceful shutdown: SIGTERM/SIGINT set the stop event instead of
    # killing the process mid-unit.  The executor finishes in-flight
    # units, flushes the checkpoint, and raises StudyInterrupted; the
    # process then exits 128+signum, and re-running with the same
    # --resume directory picks up from the last committed unit.
    stop_event = threading.Event()
    received = {"signum": 0}

    def _drain(signum: int, frame: object) -> None:
        received["signum"] = signum
        stop_event.set()

    try:
        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, _drain),
            signal.SIGINT: signal.signal(signal.SIGINT, _drain),
        }
    except ValueError:  # not the main thread (tests); run uninterruptible
        previous = {}

    def _interrupted(exc: StudyInterrupted) -> int:
        print(
            f"\ninterrupted by signal {received['signum']}: "
            f"{exc.completed} unit(s) committed, {exc.remaining} left"
            + (
                f"; resume by re-running with --archive {config.archive_dir}"
                if config.stream
                else f"; resume with --resume {config.checkpoint_dir}"
                if config.checkpoint_dir
                else " (no --resume directory: progress was not saved)"
            ),
            file=sys.stderr,
        )
        return 128 + received["signum"]

    started = time.time()
    try:
        # Telemetry riders subscribe to the run's bus before the study
        # starts; either the ledger or the dashboard turns the background
        # resource sampler on.
        bus = EventBus()
        panel = ledger = None
        if dashboard:
            from repro.runtime.dashboard import Dashboard

            panel = Dashboard(bus, stream=sys.stderr).start()
        if ledger_path:
            ledger = EventLog(ledger_path)
            bus.subscribe(ledger)
        try:
            study = run(
                config,
                stop_event=stop_event,
                bus=bus,
                sample_interval_s=0.5 if dashboard or ledger_path else None,
            )
        except StudyInterrupted as exc:
            return _interrupted(exc)
        finally:
            if panel is not None:
                panel.stop()
            if ledger is not None:
                ledger.close()
    except (CheckpointMismatchError, ArchiveReadError) as exc:
        # --resume or --stream --archive named another study's directory
        # (nothing ran), or a streamed archive lost a unit's bytes under it.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(study.summary())
    print(f"\ncompleted in {time.time() - started:.0f}s")
    if ledger_path:
        print(f"ledger written to {ledger_path}")
    if config.obs.trace_path:
        suffix = ".snapshot-NN" if series else ""
        print(f"trace written to {config.obs.trace_path}{suffix}")
    if config.obs.metrics_path:
        print(f"metrics written to {config.obs.metrics_path}")
    if series:
        if archive:
            print(f"snapshots archived under {archive}")
        if study.interrupted:
            print(f"\nseries interrupted by signal {received['signum']} "
                  f"after {len(study.snapshots)} snapshot(s)", file=sys.stderr)
            return 128 + received["signum"]
        return 0
    if study.obs_metrics:
        if config.obs.profile_enabled:
            from repro.obs.profile import render_profile_table

            print()
            print(render_profile_table(study.obs_metrics))
        if config.obs.metrics or config.obs.metrics_path:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.merge(study.obs_metrics)
            print("\nexecution metrics:")
            print(registry.render())
    if config.stream:
        # run_full_study returned a StreamedStudy: results are already on
        # disk, so there is nothing further to archive here.
        print(f"streamed archive at {study.archive_dir}")
        print(f"fingerprint {study.fingerprint()}")
    elif archive:
        from repro.core.archive import write_study_archive

        path = write_study_archive(study, archive)
        print(f"archived to {path}")
    return 0


def _load_trace(file: str):
    """Read a trace for the CLI; None (after a stderr message) on failure.

    ``read_trace`` already skips corrupt lines with warnings; the command
    only fails when nothing at all parsed.
    """
    from repro.obs.trace import read_trace

    try:
        records = read_trace(file)
    except OSError as exc:
        print(f"cannot read trace {file!r}: {exc}", file=sys.stderr)
        return None
    if not records:
        print(f"no trace records parsed from {file!r}", file=sys.stderr)
        return None
    return records


def cmd_trace(args) -> int:
    if args.trace_cmd == "diff":
        from repro.obs.analyze import diff_traces, render_diff

        a = _load_trace(args.file_a)
        b = _load_trace(args.file_b)
        if a is None or b is None:
            return 2
        diff = diff_traces(a, b)
        print(render_diff(diff))
        return 0 if diff.empty else 1

    records = _load_trace(args.file)
    if records is None:
        return 2
    if args.trace_cmd == "summarize":
        from repro.obs.trace import summarize_trace

        print(summarize_trace(records))
    elif args.trace_cmd == "flows":
        from repro.obs.analyze import reconstruct_flows, render_flows

        print(
            render_flows(
                reconstruct_flows(records),
                test=args.test,
                max_flows=args.max_flows,
            )
        )
    elif args.trace_cmd == "query":
        import json

        from repro.obs.analyze import query_trace

        try:
            matches = query_trace(records, args.expression)
        except ValueError as exc:
            print(f"bad query: {exc}", file=sys.stderr)
            return 2
        for record in matches:
            print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        print(
            f"{len(matches)} / {len(records)} records matched",
            file=sys.stderr,
        )
    return 0


def cmd_report_explain(
    provider: str,
    max_vps: int,
    seed: int,
    show_all: bool,
    as_json: bool = False,
) -> int:
    from repro.api import explain_provider
    from repro.config import StudyConfig

    try:
        report, trace_records = explain_provider(
            provider,
            config=StudyConfig(seed=seed, max_vantage_points=max_vps),
        )
    except KeyError:
        print(f"unknown provider {provider!r}; see 'repro list'",
              file=sys.stderr)
        return 2
    if as_json:
        # The same serialization path the audit service stores and the
        # HTTP API serves — one schema for humans' scripts everywhere.
        import json

        from repro.obs.evidence import explain_document

        print(json.dumps(
            explain_document(report, trace_records),
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(report.summary())
    chains = report.evidence_chains()
    flagged = 0
    clean = 0
    for hostname in sorted(chains):
        for name, chain in chains[hostname].items():
            if chain.links or chain.notes:
                flagged += 1
            else:
                clean += 1
                if not show_all:
                    continue
            print()
            print(chain.render(trace_records))
    print()
    print(
        f"{flagged} verdict(s) with incriminating evidence, "
        f"{clean} clean"
        + ("" if show_all or not clean else " (--all to show)")
    )
    return 0


def cmd_serve(args) -> int:
    from repro.config import ServeConfig
    from repro.serve.daemon import AuditDaemon

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            state_dir=args.state_dir,
            workers=args.workers,
            max_active_jobs=args.max_active_jobs,
            keep_checkpoints=args.keep_checkpoints,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log = None if args.quiet else (
        lambda message: print(f"repro-serve: {message}", file=sys.stderr)
    )
    daemon = AuditDaemon(config, log=log)
    return daemon.serve_forever()


def _submit_request(args):
    from repro.config import StudyConfig
    from repro.obs.config import ObsConfig
    from repro.serve.protocol import JobKind, JobRequest, ProtocolError
    from repro.source import StudySource

    if args.source and args.providers:
        raise ProtocolError("pass --source or --providers, not both")
    source = None
    if args.source:
        try:
            source = StudySource.parse(args.source)
        except ValueError as exc:
            raise ProtocolError(f"bad --source: {exc}") from exc
    config = StudyConfig(
        seed=args.seed,
        providers=tuple(args.providers) if args.providers else None,
        source=source,
        shards=args.shards,
        max_vantage_points=args.max_vps,
        snapshots=args.snapshots,
        obs=ObsConfig(trace=args.trace),
    )
    return JobRequest(
        kind=JobKind(args.kind),
        config=config,
        priority=args.priority,
        label=args.label,
    )


def cmd_client(args) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError
    from repro.serve.protocol import JobState, ProtocolError

    client = ServeClient(args.endpoint)
    try:
        if args.client_cmd == "submit":
            try:
                request = _submit_request(args)
            except ProtocolError as exc:
                print(f"bad job: {exc}", file=sys.stderr)
                return 2
            reply = client.submit(request)
            if reply.deduplicated:
                print(
                    f"deduplicated onto active job {reply.job_id}",
                    file=sys.stderr,
                )
            # Bare id on stdout: JOB=$(repro client submit study ...)
            print(reply.job_id)
            if not args.wait:
                return 0
            final = client.wait(reply.job_id, timeout_s=args.timeout)
            print(
                f"{reply.job_id}: {final.record.state.value}",
                file=sys.stderr,
            )
            return 0 if final.record.state is JobState.COMPLETED else 1
        if args.client_cmd == "status":
            print(json.dumps(
                client.status(args.job_id).to_dict(),
                indent=2, sort_keys=True,
            ))
            return 0
        if args.client_cmd == "watch":
            from repro.runtime.events import (
                TextProgressRenderer,
                event_from_dict,
            )

            if args.as_json:
                # One wire-form event dict per line — exactly the frames
                # the dashboard consumes, for scripting against long jobs.
                def _render(record: dict) -> None:
                    print(json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    ))
                    sys.stdout.flush()
            else:
                renderer = TextProgressRenderer(sys.stdout)

                def _render(record: dict) -> None:
                    event = event_from_dict(record)
                    if event is not None:
                        renderer(event)

            final = client.watch(
                args.job_id,
                _render,
                since=args.since,
                timeout_s=args.timeout,
            )
            print(
                f"{args.job_id}: {final.state.value}", file=sys.stderr
            )
            return 0 if final.state is JobState.COMPLETED else 1
        if args.client_cmd == "top":
            top = client.top(args.job_id)
            if args.as_json:
                print(json.dumps(top, indent=2, sort_keys=True))
            else:
                from repro.runtime.dashboard import render_top

                print(f"job      : {top.get('job_id', args.job_id)}")
                print(render_top(top))
            return 0
        if args.client_cmd == "fetch":
            print(json.dumps(
                client.result(args.job_id, args.name),
                indent=2, sort_keys=True,
            ))
            return 0
        if args.client_cmd == "cancel":
            reply = client.cancel(args.job_id)
            print(f"{args.job_id}: {reply.record.state.value}")
            return 0
        if args.client_cmd == "list":
            for reply in client.jobs():
                record = reply.record
                label = record.request.label or record.request.kind.value
                print(
                    f"{record.job_id}  {record.state.value:9s}  "
                    f"prio={record.request.priority}  {label}"
                )
            return 0
        if args.client_cmd == "trace":
            reply = client.trace_query(args.job_id, args.expression)
            for record in reply.matches:
                print(json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ))
            print(
                f"{len(reply.matches)} / {reply.total_records} "
                f"records matched",
                file=sys.stderr,
            )
            return 0
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 2  # pragma: no cover


def cmd_ledger_show(file: str, as_json: bool = False) -> int:
    import json

    from repro.runtime.dashboard import render_top, state_from_events
    from repro.runtime.events import event_from_dict, read_events

    try:
        records = read_events(file)
    except OSError as exc:
        print(f"cannot read ledger {file!r}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"no ledger records parsed from {file!r}", file=sys.stderr)
        return 2
    try:
        top = state_from_events(records).top()
    except ValueError as exc:  # a record naming an event, in another shape
        print(f"bad ledger record in {file!r}: {exc}", file=sys.stderr)
        return 2
    if not any(event_from_dict(record) for record in records):
        print(f"error: no record in {file!r} names a run event",
              file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(top, indent=2, sort_keys=True))
    else:
        print(f"ledger   : {file}")
        print(render_top(top))
    return 0


def cmd_checkpoint_prune(path: str) -> int:
    import pathlib

    root = pathlib.Path(path)
    if not root.exists():
        print(f"error: no such directory: {path}", file=sys.stderr)
        return 2
    if (root / "jobs").is_dir():
        # A serve state directory: prune every *finished* job's
        # checkpoint, leave queued/running jobs resumable.
        from repro.serve.store import ResultStore

        pruned = ResultStore(root).prune_checkpoints()
        total = sum(pruned.values())
        for job_id, count in sorted(pruned.items()):
            print(f"{job_id}: {count} file(s)")
        print(f"pruned {total} file(s) across {len(pruned)} job(s)")
        return 0
    from repro.runtime.checkpoint import CheckpointStore

    count = CheckpointStore(root).prune()
    if not count:
        print(f"error: not a checkpoint: {path}", file=sys.stderr)
        return 2
    print(f"pruned {count} file(s) from {path}")
    return 0


def cmd_archive_fingerprint(path: str) -> int:
    import pathlib

    from repro.core.archive import archive_fingerprint

    root = pathlib.Path(path)
    if not root.is_dir():
        print(f"no such directory: {path}", file=sys.stderr)
        return 2
    if not any(root.rglob("*.json")):  # not the hash of nothing
        print(f"error: no archive files (*.json) under {path}",
              file=sys.stderr)
        return 2
    print(archive_fingerprint(root))
    return 0


def cmd_ecosystem() -> int:
    from repro.ecosystem import EcosystemAnalysis, generate_ecosystem
    from repro.reporting.tables import render_table

    analysis = EcosystemAnalysis(generate_ecosystem())
    print(render_table(
        ["Subscription", "# of VPNs", "Min $", "Avg $", "Max $"],
        [
            [r.period, r.provider_count, f"{r.min_monthly:.2f}",
             f"{r.avg_monthly:.2f}", f"{r.max_monthly:.2f}"]
            for r in analysis.subscription_table()
        ],
        title="Subscription costs (Table 3)",
    ))
    marketing = analysis.marketing_stats()
    transparency = analysis.transparency_stats()
    print(f"\naffiliate programmes : {marketing['affiliate_programs']}")
    print(f"no privacy policy    : {transparency['without_privacy_policy']}")
    print(f"no terms of service  : "
          f"{transparency['without_terms_of_service']}")
    print(f"'no logs' claims     : {transparency['no_logs_claims']}")
    return 0


def cmd_ecosystem_generate(args) -> int:
    import pathlib

    from repro.source import StudySource

    try:
        source = StudySource.generated(
            args.providers,
            generator_seed=args.seed,
            vantage_points=args.vantage_points,
        )
    except ValueError as exc:
        print(f"bad generated ecosystem: {exc}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    if out.is_dir() or not out.suffix:
        out = out / "ecosystem-spec.json"
    path = source.write_spec(out)
    names = source.provider_names(study_seed=2018)
    print(f"spec written to {path}")
    print(
        f"{len(names)} providers "
        f"({names[0]} .. {names[-1]}), "
        f"{args.vantage_points} vantage points each"
    )
    print(f"run it with: repro study --source {path}")
    return 0


def cmd_experiments() -> int:
    from repro.reporting.experiments import EXPERIMENTS
    from repro.reporting.tables import render_table

    print(render_table(
        ["Id", "Paper", "Bench", "Description"],
        [
            [e.exp_id, e.paper_ref, e.bench, e.description[:60]]
            for e in EXPERIMENTS
        ],
        title="Experiment registry",
    ))
    return 0


_GUIDE_DEFAULTS = [
    "Mullvad", "ProtonVPN", "Windscribe", "NordVPN", "ExpressVPN",
    "CyberGhost", "Freedome VPN", "HideMyAss", "Seed4.me",
]


def cmd_guide(providers: list[str], seed: int) -> int:
    from repro.api import run_full_study
    from repro.config import StudyConfig
    from repro.core.scoring import build_selection_guide

    names = providers or _GUIDE_DEFAULTS
    if _unknown_providers(names):
        return 2
    study = run_full_study(StudyConfig(seed=seed, providers=names))
    guide = build_selection_guide(study)
    print(guide.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "audit":
        return cmd_audit(args.provider, args.max_vps, args.seed)
    if args.command == "study":
        from repro.config import StudyConfig
        from repro.obs.config import ObsConfig
        from repro.source import StudySource

        if args.source and args.providers:
            print("pass --source or --providers, not both", file=sys.stderr)
            return 2
        if args.stream and not args.archive:
            print("--stream requires --archive", file=sys.stderr)
            return 2
        if _unknown_providers(args.providers or ()):
            return 2
        ledger_path = args.ledger
        if ledger_path == "auto":
            # "Alongside the archive": .jsonl, so the archive fingerprint
            # (which hashes *.json) never sees it.
            import pathlib

            base = pathlib.Path(args.archive) if args.archive else (
                pathlib.Path(".")
            )
            ledger_path = str(base / "ledger.jsonl")
        source = None
        if args.source:
            try:
                source = StudySource.parse(args.source)
            except ValueError as exc:
                print(f"bad --source: {exc}", file=sys.stderr)
                return 2
        try:
            config = StudyConfig(
                seed=args.seed,
                providers=(
                    tuple(args.providers) if args.providers else None
                ),
                source=source,
                shards=args.shards,
                stream=args.stream,
                max_vantage_points=args.max_vps,
                workers=args.workers,
                backend=args.backend,
                checkpoint_dir=args.resume,
                snapshots=args.snapshots,
                progress=args.progress,
                archive_dir=args.archive if args.stream else None,
                obs=ObsConfig(
                    trace=bool(args.trace),
                    trace_path=args.trace,
                    metrics=args.metrics,
                    metrics_path=args.metrics_out,
                    flight_recorder=args.flight_recorder,
                    profile=args.profile,
                    stage_profile=args.profile_stages,
                    stage_sample=args.stage_sample,
                ),
            )
        except ValueError as exc:
            # An out-of-range flag (--workers 0, --stage-sample 0, ...).
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return cmd_study(
            config,
            args.archive,
            dashboard=args.dashboard,
            ledger_path=ledger_path,
        )
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "ledger":
        return cmd_ledger_show(args.file, as_json=args.as_json)
    if args.command == "report":
        return cmd_report_explain(
            args.provider, args.max_vps, args.seed, args.show_all,
            as_json=args.as_json,
        )
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "client":
        return cmd_client(args)
    if args.command == "checkpoint":
        return cmd_checkpoint_prune(args.path)
    if args.command == "archive":
        return cmd_archive_fingerprint(args.path)
    if args.command == "ecosystem":
        if getattr(args, "ecosystem_cmd", None) == "generate":
            return cmd_ecosystem_generate(args)
        return cmd_ecosystem()
    if args.command == "experiments":
        return cmd_experiments()
    if args.command == "guide":
        return cmd_guide(args.providers, args.seed)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
