"""Command-line interface.

Usage (``python -m repro ...``)::

    python -m repro report [--measurements]
    python -m repro figure {fig5,fig6,fig8,fig9,fig10,fig11,fig12,fig15}
    python -m repro capacity --filters 500 --replication 3 [--type app] [--rho 0.9]
    python -m repro wait --filters 500 --replication 3 --p-match 0.006 [--rho 0.9]
    python -m repro lint "price > 10 AND price < 5" [--strict]
    python -m repro lint --file selectors.txt
    python -m repro lint --example
    python -m repro faults --outage-at 20 --outage 5 [--seed 7] [--horizon 60]
    python -m repro overload [--capacity 5] [--rho 0.9 --rho 1.3] [--validate]
    python -m repro resilience [--rho 0.9] [--budget 0.1] [--region] [--validate] [--storm]
    python -m repro bench SUITE [--fast] [--out PATH]
    python -m repro check [--format json] [--rules SIM,REC,...] [--require]
    python -m repro check --update-baseline

``report`` checks every numeric paper claim; ``figure`` prints the series
of one reproduced figure; ``capacity`` and ``wait`` apply the model to a
user scenario (the practical use the paper advertises); ``lint`` runs the
selector static analyzer over ad-hoc selectors, a file of selectors (one
per line) or an example deployment, reporting dead/trivial/duplicate/
ill-typed filters and the Eq. 3 verdict; ``faults`` runs a deterministic
fault-injection experiment (server outages, retrying publishers, durable
recovery) and reports the message-conservation ledger plus the fluid
availability prediction; ``overload`` prints the M/G/1/K loss model's
curves for a bounded buffer — and, with ``--validate``, cross-checks
them against the discrete-event overload simulation; ``resilience``
solves the retry-storm fixed point of one scenario — with ``--region``
its neighbourhood, with ``--validate`` the DES retry cells, with
``--storm`` the metastable-storm harness; ``bench`` records
one suite of :mod:`repro.bench.suites` (one per committed
``BENCH_<name>.json``), prints its report, writes the recording only
where ``--out`` points and exits 1 unless its acceptance block passes —
``bench durability|replication|mesh`` is also how the crash, failover
and rebalance chaos matrices of :mod:`repro.chaos` run, each with its
capacity or RPO/RTO model beside it; ``check`` runs the whole-program
invariant analyzer (determinism, recovery no-raise, race hazards,
API hygiene) over ``src/repro``.

Exit codes (uniform across ``lint`` and ``check`` so CI and editors can
consume them): **0** clean, **1** findings (or, for experiment commands,
a violated invariant / failed gate), **2** usage error (bad flags,
unreadable input, malformed baseline).

Each handler imports what it runs inside itself, and ``import repro``
imports no subpackage, so parsing and ``--help`` load neither scipy nor
``repro.analysis`` (``tests/test_cli.py`` holds every command to that).
``lint`` and ``check`` need numpy — the parser loads ``repro.bench``
for its suite names and ``lint``'s Eq. 3 audit is ``repro.core`` — but
not scipy (the ``repro[fast]`` extra), so the static gates work in an
environment without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]

_FIGURE_IDS = (
    "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig15",
)


def _figure(figure_id: str):
    from . import analysis

    return getattr(analysis, f"figure{figure_id.removeprefix('fig')}")


def _costs(kind: str):
    from .core import APP_PROPERTY_COSTS, CORRELATION_ID_COSTS

    return APP_PROPERTY_COSTS if kind == "app" else CORRELATION_ID_COSTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the FioranoMQ JMS waiting-time analysis (ICDCS 2006).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="check every numeric paper claim")
    report.add_argument(
        "--measurements",
        action="store_true",
        help="include the (slower) simulated-measurement claims (Table I)",
    )
    report.set_defaults(handler=_run_report)

    figure = commands.add_parser("figure", help="print one reproduced figure's series")
    figure.add_argument("figure_id", choices=sorted(_FIGURE_IDS))
    figure.set_defaults(handler=_run_figure)

    def add_scenario_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--filters", type=int, required=True, help="installed filters n_fltr")
        sub.add_argument(
            "--replication", type=float, required=True, help="mean replication grade E[R]"
        )
        sub.add_argument(
            "--type", choices=("corr", "app"), default="corr", help="filter mechanism"
        )
        sub.add_argument("--rho", type=float, default=0.9, help="CPU utilization budget")

    capacity = commands.add_parser("capacity", help="predict server capacity (Eqs. 1-2)")
    add_scenario_arguments(capacity)
    capacity.set_defaults(handler=_run_capacity)

    wait = commands.add_parser("wait", help="waiting-time summary at a load (Eqs. 4-20)")
    add_scenario_arguments(wait)
    wait.add_argument(
        "--p-match",
        type=float,
        default=None,
        help="per-filter match probability (default: replication / filters)",
    )
    wait.set_defaults(handler=_run_wait)

    lint = commands.add_parser(
        "lint", help="statically analyze message selectors (types, dead/trivial filters)"
    )
    lint.add_argument("selectors", nargs="*", help="selector expressions to analyze")
    lint.add_argument("--file", help="file with one selector per line ('#' comments)")
    lint.add_argument(
        "--example",
        action="store_true",
        help="audit a seeded example deployment (dead, trivial and duplicate selectors)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not only on errors",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is stable and machine-readable)",
    )
    lint.set_defaults(handler=_run_lint)

    check = commands.add_parser(
        "check",
        help="whole-program invariant analyzer (SIM/REC/RACE/API rules)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="package roots to scan (default: the installed repro package)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is byte-deterministic for a given tree)",
    )
    check.add_argument(
        "--rules",
        default=None,
        metavar="SELECTORS",
        help="comma-separated rule codes or families (e.g. SIM,REC001)",
    )
    check.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: STATIC_BASELINE.json at the repo root)",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to cover today's findings (minimal, sorted diff)",
    )
    check.add_argument(
        "--require",
        action="store_true",
        help="CI mode: also fail on stale baseline entries and scan errors",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    check.set_defaults(handler=_run_check)

    faults = commands.add_parser(
        "faults", help="run a deterministic fault-injection & recovery experiment"
    )
    faults.add_argument("--seed", type=int, default=0, help="master RNG seed")
    faults.add_argument(
        "--horizon", type=float, default=60.0, help="run length in virtual seconds"
    )
    faults.add_argument(
        "--utilization", type=float, default=0.7, help="fault-free server utilization"
    )
    faults.add_argument(
        "--outage-at",
        type=float,
        action="append",
        default=None,
        metavar="T",
        help="crash the server at virtual time T (repeatable)",
    )
    faults.add_argument(
        "--outage",
        type=float,
        default=5.0,
        help="outage duration in virtual seconds (applies to every --outage-at)",
    )
    faults.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="instead of fixed outages: random crashes per virtual second (seeded)",
    )
    faults.add_argument(
        "--max-redeliveries",
        type=int,
        default=3,
        help="queue redelivery budget before dead-lettering",
    )
    faults.add_argument(
        "--non-persistent",
        action="store_true",
        help="send NON_PERSISTENT messages (crashes may lose them)",
    )
    faults.set_defaults(handler=_run_faults)

    overload = commands.add_parser(
        "overload", help="M/G/1/K loss model for a bounded buffer (optionally simulated)"
    )
    overload.add_argument(
        "--capacity", type=int, default=5, help="system capacity K (in service + waiting)"
    )
    overload.add_argument(
        "--rho",
        type=float,
        action="append",
        default=None,
        metavar="RHO",
        help="offered load(s) to evaluate (repeatable; default: 0.5 ... 1.5 grid)",
    )
    overload.add_argument(
        "--family",
        choices=("deterministic", "scaled_bernoulli", "binomial"),
        default=None,
        help="restrict to one replication-grade family (default: all three)",
    )
    overload.add_argument(
        "--policy",
        choices=("drop-new", "drop-oldest", "deadline-shed"),
        default="drop-new",
        help="overflow policy of the simulated bounded buffer",
    )
    overload.add_argument(
        "--validate",
        action="store_true",
        help="also run the discrete-event simulation and report relative errors",
    )
    overload.add_argument("--seed", type=int, default=1, help="simulation RNG seed")
    overload.add_argument(
        "--messages", type=int, default=20000, help="offered messages per simulated run"
    )
    overload.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="message time-to-live in virtual seconds (required by deadline-shed)",
    )
    overload.set_defaults(handler=_run_overload)

    from .bench.suites import SUITES

    bench = commands.add_parser(
        "bench", help="record one bench suite and gate on its acceptance block"
    )
    bench.add_argument(
        "suite", choices=sorted(SUITES), help="the BENCH_<suite>.json to record"
    )
    bench.add_argument(
        "--fast",
        action="store_true",
        help="reduced CI-sized run (hotpath, batch, mesh and resilience; "
        "the other suites have one size)",
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the recording here (nothing is written without it)",
    )
    bench.set_defaults(handler=_run_bench)

    resilience = commands.add_parser(
        "resilience",
        help="retry-storm fixed points, DES validation, and the storm harness",
    )
    resilience.add_argument(
        "--rho", type=float, default=0.9, help="fresh offered load rho"
    )
    resilience.add_argument(
        "--capacity", type=int, default=80, help="system size K of the M/G/1/K server"
    )
    resilience.add_argument(
        "--retries", type=int, default=6, help="per-message retry limit r"
    )
    resilience.add_argument(
        "--timeout",
        type=float,
        default=40.0,
        help="client timeout in service-time multiples (0 = patient clients)",
    )
    resilience.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="BETA",
        help="retry-budget ratio (omit for unbudgeted clients)",
    )
    resilience.add_argument(
        "--region",
        action="store_true",
        help="classify the (rho, timeout, budget) neighbourhood of the scenario",
    )
    resilience.add_argument(
        "--validate",
        action="store_true",
        help="validate lambda_eff against the DES retry cells (slow)",
    )
    resilience.add_argument(
        "--storm",
        action="store_true",
        help="run the metastable-storm chaos harness (slowest)",
    )
    resilience.set_defaults(handler=_run_resilience)
    return parser


def _run_capacity(args: argparse.Namespace) -> int:
    from .core import predict_throughput, server_capacity

    costs = _costs(args.type)
    capacity = server_capacity(costs, args.filters, args.replication, rho=args.rho)
    prediction = predict_throughput(costs, args.filters, args.replication, rho=args.rho)
    print(f"scenario: {args.filters} {costs.filter_type} filters, E[R]={args.replication:g}")
    print(f"capacity at rho={args.rho:g}: {capacity:.1f} received msgs/s")
    print(f"dispatched: {prediction.dispatched:.1f} msgs/s; overall: {prediction.overall:.1f} msgs/s")
    return 0


def _run_wait(args: argparse.Namespace) -> int:
    from .core import BinomialReplication, MG1Queue, ServiceTimeModel

    costs = _costs(args.type)
    if args.filters <= 0:
        raise SystemExit("wait analysis needs at least one filter")
    p_match = (
        args.p_match if args.p_match is not None else args.replication / args.filters
    )
    if not 0 <= p_match <= 1:
        raise SystemExit(f"match probability {p_match:g} outside [0, 1]")
    model = ServiceTimeModel(
        costs, args.filters, BinomialReplication(args.filters, p_match)
    )
    queue = MG1Queue.from_utilization(args.rho, model.moments)
    summary = queue.describe()
    print(f"scenario: {args.filters} {costs.filter_type} filters, p_match={p_match:g}")
    print(f"E[B] = {summary['mean_service_time'] * 1e3:.3f} ms (c_var {summary['service_cvar']:.3f})")
    print(f"rho = {summary['utilization']:.2f} -> lambda = {summary['arrival_rate']:.1f} msgs/s")
    print(f"E[W] = {summary['mean_wait'] * 1e3:.3f} ms")
    print(f"Q99[W] = {summary['wait_q99'] * 1e3:.3f} ms")
    print(f"Q99.99[W] = {summary['wait_q9999'] * 1e3:.3f} ms")
    print(f"mean queue length = {summary['mean_queue_length']:.2f} messages")
    return 0


def _example_broker():
    """A small deployment seeded with the defects lint should catch."""
    from .broker import Broker, PropertyFilter

    broker = Broker(topics=["orders", "telemetry"])
    for name in ("analytics", "audit-1", "audit-2", "ops", "dashboard"):
        broker.add_subscriber(name)
    # dead filter: the price interval is empty
    broker.subscribe("analytics", "orders", PropertyFilter("price > 10 AND price < 5"))
    # trivial filter: a tautology that matches every message
    broker.subscribe("ops", "orders", PropertyFilter("x = x OR TRUE"))
    # duplicates: textually different, semantically equal selectors
    broker.subscribe("audit-1", "orders", PropertyFilter("region = 'EU'"))
    broker.subscribe("audit-2", "orders", PropertyFilter("NOT (region <> 'EU')"))
    # a healthy selector for contrast
    broker.subscribe("dashboard", "telemetry", PropertyFilter("severity >= 3"))
    return broker


def _lint_finding_dict(finding) -> dict:
    """Stable JSON shape for one audited selector."""
    payload: dict = {
        "selector": finding.selector,
        "ok": finding.ok,
        "parse_error": finding.parse_error,
        "canonical": None,
        "diagnostics": [],
    }
    if finding.analysis is not None:
        payload["canonical"] = finding.analysis.canonical_text
        payload["diagnostics"] = [
            {
                "severity": str(d.severity),
                "code": d.code,
                "message": d.message,
                "span": list(d.span) if d.span is not None else None,
            }
            for d in finding.analysis.diagnostics
        ]
    return payload


def _run_lint(args: argparse.Namespace) -> int:
    import json

    from .broker.lint import audit_broker, audit_selectors, render_audit

    exit_code = 0
    if args.example:
        audit = audit_broker(_example_broker())
        if args.format == "json":
            payload = {
                "clean": audit.clean,
                "dead": audit.total_dead,
                "trivial": audit.total_trivial,
                "duplicates": audit.total_duplicates,
                "ill_typed": audit.total_ill_typed,
                "topics": [
                    {
                        "topic": topic.topic,
                        "subscriptions": topic.subscriptions,
                        "filters": topic.filters,
                        "dead": topic.dead,
                        "trivial": topic.trivial,
                        "duplicates": topic.duplicates,
                        "ill_typed": topic.ill_typed,
                        "findings": [
                            _lint_finding_dict(f)
                            for f in topic.findings
                            if not f.ok
                        ],
                    }
                    for topic in audit.topics
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render_audit(audit))
        if not audit.clean:
            exit_code = 1 if args.strict or audit.total_ill_typed else 0
        return exit_code
    selectors = list(args.selectors)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        selectors.append(line)
        except OSError as exc:
            raise _usage_error(
                f"lint: cannot read {args.file}: {exc.strerror}"
            ) from exc
    if not selectors:
        raise _usage_error("lint needs selectors, --file or --example")
    findings = audit_selectors(selectors)
    errors = warnings = 0
    for finding in findings:
        if finding.parse_error is not None:
            errors += 1
        elif finding.analysis is not None:
            errors += len(finding.analysis.errors)
            warnings += len(finding.analysis.warnings)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "selectors": [_lint_finding_dict(f) for f in findings],
                    "errors": errors,
                    "warnings": warnings,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            if finding.parse_error is not None:
                print(f"{finding.selector}")
                print(f"    parse error: {finding.parse_error}")
                continue
            analysis = finding.analysis
            assert analysis is not None
            status = "ok" if analysis.ok else "FINDINGS"
            print(f"{finding.selector}    [{status}; canonical: {analysis.canonical_text}]")
            if analysis.diagnostics:
                print("    " + analysis.render().replace("\n", "\n    "))
        print(f"{len(findings)} selector(s): {errors} error(s), {warnings} warning(s)")
    if errors or (args.strict and warnings):
        exit_code = 1
    return exit_code


def _usage_error(message: str) -> SystemExit:
    """Print a usage error and build the exit-code-2 SystemExit."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _repo_root() -> Path:
    """The checkout root when running from a source tree (src layout)."""
    return Path(__file__).resolve().parent.parent.parent


def _run_check(args: argparse.Namespace) -> int:
    from .statics import (
        Baseline,
        BaselineError,
        CheckConfig,
        build_index,
        default_rules,
        run_check,
    )

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.code}  [{rule.severity}]  {rule.description}")
        return 0

    if args.paths:
        roots = tuple(Path(p) for p in args.paths)
        missing = [str(p) for p in roots if not p.exists()]
        if missing:
            raise _usage_error(f"check: no such path(s): {', '.join(missing)}")
        baseline = Path(args.baseline) if args.baseline else None
    else:
        # Default scan: the installed package, with the repo's committed
        # baseline when it is present.
        roots = (Path(__file__).resolve().parent,)
        root = _repo_root()
        baseline = (
            Path(args.baseline)
            if args.baseline
            else (root / "STATIC_BASELINE.json"
                  if (root / "STATIC_BASELINE.json").exists() else None)
        )
    rules = (
        tuple(r.strip() for r in args.rules.split(",") if r.strip())
        if args.rules
        else None
    )
    config = CheckConfig(roots=roots, baseline=baseline, rules=rules)

    try:
        if args.update_baseline:
            if baseline is None:
                raise _usage_error("check: --update-baseline needs --baseline "
                                   "(no repo-root STATIC_BASELINE.json found)")
            bare = CheckConfig(roots=roots, baseline=None, rules=rules)
            index = build_index(bare)
            report = run_check(bare, index=index)
            previous = (
                Baseline.load(baseline.read_text(encoding="utf-8"))
                if baseline.exists()
                else None
            )
            updated = Baseline.from_findings(
                report.findings, index.sources(), previous=previous
            )
            baseline.write_text(updated.dump(), encoding="utf-8")
            before = len(previous.entries) if previous is not None else 0
            print(
                f"baseline: {len(updated.entries)} entr(y/ies) "
                f"(was {before}) -> {baseline}"
            )
            return 0
        index = build_index(config)
        report = run_check(config, index=index)
    except BaselineError as exc:
        raise _usage_error(f"check: {exc}") from exc
    except ValueError as exc:
        raise _usage_error(f"check: {exc}") from exc

    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(report.render_text(index.sources()))
    failed = bool(report.findings)
    if args.require and (report.stale_baseline or index.parse_errors):
        failed = True
    return 1 if failed else 0


def _run_faults(args: argparse.Namespace) -> int:
    from .faults import FaultExperimentConfig, FaultSchedule, run_fault_experiment
    from .rng import RandomStreams

    config = FaultExperimentConfig(
        seed=args.seed,
        horizon=args.horizon,
        utilization=args.utilization,
        max_redeliveries=args.max_redeliveries,
        persistent=not args.non_persistent,
    )
    if args.crash_rate > 0:
        schedule = FaultSchedule.random(
            RandomStreams(seed=args.seed),
            horizon=args.horizon,
            crash_rate=args.crash_rate,
            mean_outage=args.outage,
        )
    elif args.outage_at:
        schedule = FaultSchedule(
            FaultSchedule.single_outage(at, args.outage).events[0]
            for at in sorted(args.outage_at)
        )
    else:
        schedule = FaultSchedule.none()
    print(schedule.describe())
    result = run_fault_experiment(schedule, config)
    print(
        f"run: seed={config.seed} horizon={config.horizon:g}s "
        f"lambda={config.arrival_rate:.1f}/s rho={config.utilization:g}"
    )
    print(
        f"ledger: generated={result.generated} accepted={result.accepted} "
        f"delivered={result.delivered} expired={result.expired} lost={result.lost}"
    )
    print(
        f"faults: crashes={result.crashes} rejected={result.rejected_submits} "
        f"retries={result.retries} redelivered={result.redelivered} "
        f"dead_lettered={result.dead_lettered} backlog={result.backlog_at_end}"
    )
    print(
        f"waiting time: measured {result.mean_total_wait * 1e3:.2f} ms "
        f"(queue {result.mean_wait * 1e3:.2f} ms + retry "
        f"{result.mean_accept_latency * 1e3:.2f} ms)"
    )
    print(
        f"fluid model: baseline {result.impact.base_mean_wait * 1e3:.2f} ms "
        f"+ outages {result.impact.extra_mean_wait * 1e3:.2f} ms; "
        f"availability {result.impact.availability:.3f}"
    )
    conserved = "balanced" if result.conserved else f"IMBALANCED {result.ledger!r}"
    print(f"conservation: {conserved}" + ("" if result.no_persistent_loss else " (loss or backlog)"))
    return 0 if result.conserved else 1


def _run_overload(args: argparse.Namespace) -> int:
    from .analysis.overload import (
        DEFAULT_RHO_GRID,
        format_validation,
        overload_figure,
        validate_overload,
    )
    from .broker.queues import DropPolicy
    from .core.service_time import ReplicationFamily
    from .overload.experiment import OverloadExperimentConfig

    try:
        config = OverloadExperimentConfig(
            seed=args.seed,
            messages=args.messages,
            capacity=args.capacity,
            policy=DropPolicy(args.policy),
            ttl=args.ttl,
        )
    except ValueError as exc:
        raise SystemExit(f"overload: {exc}") from exc
    rhos = tuple(args.rho) if args.rho else DEFAULT_RHO_GRID
    families = (
        (ReplicationFamily(args.family),)
        if args.family
        else (
            ReplicationFamily.DETERMINISTIC,
            ReplicationFamily.SCALED_BERNOULLI,
            ReplicationFamily.BINOMIAL,
        )
    )
    print(overload_figure(config, rhos=rhos, families=families).format())
    if not args.validate:
        return 0
    print()
    print(
        f"simulation cross-check: seed={config.seed} messages={config.messages} "
        f"policy={config.policy.value}"
    )
    rows = validate_overload(rhos, config, families=families)
    print(format_validation(rows))
    worst = max(max(row.loss_rel_err, row.wait_rel_err) for row in rows)
    print(f"worst relative error: {worst:.1%}")
    imbalanced = [row for row in rows if not row.conserved]
    for row in imbalanced:
        print(f"IMBALANCED {row.config.family.value} rho={row.config.rho:g}: {row.ledger!r}")
    return 0 if worst < 0.05 and not imbalanced else 1


def _run_bench(args: argparse.Namespace) -> int:
    from .bench.suites import SUITES, dump

    suite = SUITES[args.suite]
    payload = suite.record(args.fast)
    print(suite.report(payload))
    if args.out:
        Path(args.out).write_text(dump(payload), encoding="utf-8")
        print(f"wrote {args.out}")
    acceptance = payload["acceptance"]
    for name, ok in acceptance.items():
        print(f"acceptance: {name} = {ok}")
    return 0 if acceptance["pass"] else 1


def _run_resilience(args: argparse.Namespace) -> int:
    from .core.params import FilterType, costs_for
    from .core.replication import DeterministicReplication
    from .core.resilience import RetryAmplificationModel, storm_region
    from .core.service_time import ServiceTimeModel

    service = ServiceTimeModel(
        costs_for(FilterType.CORRELATION_ID).scaled(100.0),
        n_fltr=4,
        replication=DeterministicReplication(4),
    )
    timeout = args.timeout * service.mean if args.timeout > 0 else None
    model = RetryAmplificationModel.from_service_model(
        args.rho,
        service,
        args.capacity,
        max_retries=args.retries,
        timeout=timeout,
        late_retry=timeout is not None,
        budget_ratio=args.budget,
        budget_min_rate=0.5 if args.budget is not None else 0.0,
    )
    info = model.describe()
    timeout_label = "patient" if timeout is None else f"{timeout * 1e3:.1f} ms"
    budget_label = "none" if args.budget is None else f"beta={args.budget:g}"
    print(
        f"scenario: rho={args.rho:g}, K={args.capacity}, r={args.retries}, "
        f"timeout={timeout_label}, budget={budget_label}"
    )
    print(
        f"fresh rate: {model.base_rate:.2f} msgs/s "
        f"(E[B] = {service.mean * 1e3:.3f} ms)"
    )
    print(f"classification: {info['classification']}")
    for point in model.fixed_points():
        label = "stable" if point.stable else "unstable"
        print(
            f"  fixed point: lambda_eff = {point.rate:8.2f} msgs/s "
            f"({point.rate / model.base_rate:5.2f}x, {label}; "
            f"loss {point.loss:.3f}, late {point.late:.3f})"
        )
    print(
        f"goodput fraction: normal {info['goodput_fraction']:.3f}, "
        f"storm {info['storm_goodput_fraction']:.3f}"
    )
    status = 0
    if args.region:
        mean = service.mean
        cells = storm_region(
            service,
            capacity=args.capacity,
            rhos=(0.7, 0.8, 0.9, 1.0),
            timeouts=(None, 20 * mean, 40 * mean, 60 * mean),
            budgets=(None, args.budget if args.budget is not None else 0.1),
            max_retries=args.retries,
            budget_min_rate=0.5,
        )
        print("\n(rho, timeout, budget) -> classification:")
        for cell in cells:
            cell_timeout = (
                "  patient"
                if cell.timeout is None
                else f"{cell.timeout / mean:4.0f}xE[B]"
            )
            cell_budget = "none " if cell.budget_ratio is None else f"b={cell.budget_ratio:<4g}"
            print(
                f"  rho={cell.rho:4.2f}  timeout={cell_timeout:>9}  {cell_budget} "
                f"{cell.classification:10}  lambda_eff={cell.lambda_eff:8.2f}  "
                f"storm={cell.storm_lambda_eff:8.2f}"
            )
    if args.validate:
        from .resilience.experiment import validate_amplification

        print("\nDES validation (model vs simulated lambda_eff):")
        worst = 0.0
        for result in validate_amplification():
            worst = max(worst, result.lambda_rel_err)
            beta = result.config.budget_ratio
            cell = (
                f"rho={result.config.rho:4.2f} K={result.config.capacity:3d} "
                f"r={result.config.max_retries} beta={0 if beta is None else beta:g}"
            )
            print(
                f"  {cell}: "
                f"model {result.lambda_eff_model:8.2f} sim {result.lambda_eff_sim:8.2f} "
                f"({result.lambda_rel_err * 100:5.2f}% err, {result.classification})"
            )
            if not result.conserved:
                status = 1
                print(
                    f"  IMBALANCED {cell}: {result.ledger!r} (client: "
                    f"{result.attempts} attempts, {result.accepted} accepted, "
                    f"{result.rejected} rejected)"
                )
        print(f"  worst cell error: {worst * 100:.2f}%")
        if worst > 0.05:
            status = 1
    if args.storm:
        from .resilience.harness import run_storm_harness

        print("\nstorm harness:")
        report = run_storm_harness()
        print(report.describe())
        if not report.passed:
            status = 1
    return status


def _run_report(args: argparse.Namespace) -> int:
    from .analysis import format_report, reproduction_report

    checks = reproduction_report(include_measurements=args.measurements)
    print(format_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def _run_figure(args: argparse.Namespace) -> int:
    print(_figure(args.figure_id)().format())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
