"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-line access to the library's main entry
points without writing Python:

* ``list-schemes`` — the unified scheme catalog (exact, approximate and
  universal) with kinds, parameters, bounds and visibility;
* ``certify`` — build a legal configuration for *any* registered scheme
  name, prove it, verify it, report the proof size; approximate schemes
  additionally report the exact-counterpart comparison, and ``--param
  eps=0.5``-style overrides reach the (1+ε)-parametrised families;
* ``attack`` — corrupt an instance (or construct an α-far no-instance
  for gap schemes) and run the budgeted adversary;
* ``experiment`` — run one experiment id (or ``all``) and print its
  regenerated table;
* ``selfstab-sweep`` — the fault-injection campaign: corrupt certified
  silent systems across an n × fault-count × detector grid and verify
  detection through the incremental sweep engine; ``--adversary
  {random,targeted,byzantine}`` and ``--daemon-p`` switch to the
  adversary-latency campaign (targeted/Byzantine fault placement,
  partial-activation daemons, latency distributions); ``--param``
  overrides reach every detector's catalog parameters;
* ``profile`` — certify one scheme under an instrumentation scope
  (:mod:`repro.obs`) and print the flight recorder: deterministic cost
  counters (view builds, messages, decide calls) and wall-clock span
  aggregates;
* ``error-profile`` — measure one scheme's error-sensitivity
  (Feuilloley–Fraigniaud 2017): rejection counts against edit distance
  over corruption sweeps and adversarial patterns, with the estimated β;
* ``report`` — rewrite the measured record (``EXPERIMENTS.md`` in the
  current directory, or ``--output``) from fresh runs;
* ``make-envelope`` — build a canonical
  :class:`~repro.service.envelope.ProofEnvelope` (honest or corrupted)
  for any registered scheme and write its wire bytes;
* ``serve`` — run the certification service behind the threaded stdlib
  HTTP front end (:mod:`repro.service.httpd`) with a bounded in-flight
  gate;
* ``submit`` — POST envelope file(s) to a running server via the
  keep-alive :class:`~repro.service.client.CertifyClient` and print
  the served verdict(s) as JSON; several files go to ``/certify`` in
  turn on one connection and print as one array, in file order.

``certify``, ``experiment``, ``selfstab-sweep`` and ``profile`` accept
``--trace out.jsonl``: the command runs inside an instrumentation scope
whose spans, events, and final counter snapshot stream to the file as
JSONL (see :mod:`repro.obs.trace` for the schema).

Every scheme is instantiated through :func:`repro.core.catalog.build`;
the CLI holds no registry of its own.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Sequence

from repro.analysis import experiments as _experiments
from repro.approx.scheme import ApproxScheme
from repro.core import catalog
from repro.core.batch import batch_prove
from repro.core.soundness import attack as run_attack
from repro.core.soundness import gap_attack as run_gap_attack
from repro.errors import CatalogError, LanguageError
from repro.graphs.generators import FAMILIES
from repro.graphs.graph import Graph
from repro.graphs.weighted import weighted_copy
from repro.obs import metrics as _obs
from repro.selfstab import ADVERSARIES, SWEEP_DETECTORS
from repro.util.rng import make_rng

__all__ = ["build_parser", "main"]

_EXPERIMENTS: dict[str, Callable] = {
    "adv": _experiments.experiment_adversary_latency,
    "es": _experiments.experiment_es_sensitivity,
    "t1": _experiments.experiment_t1_proof_sizes,
    "t2": _experiments.experiment_t2_soundness,
    "t3": _experiments.experiment_t3_universal,
    "t4": _experiments.experiment_t4_verification_cost,
    "t5": _experiments.experiment_t5_approx,
    "f1": _experiments.experiment_f1_st_scaling,
    "f2": _experiments.experiment_f2_mst_scaling,
    "f3": _experiments.experiment_f3_lower_bound,
    "f4": _experiments.experiment_f4_selfstab,
    "f4b": _experiments.experiment_f4b_fault_sweep,
    "f5": _experiments.experiment_f5_idspace,
    "f6": _experiments.experiment_f6_radius_tradeoff,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proof labeling schemes (PODC 2005) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_schemes = sub.add_parser(
        "list-schemes", help="list the unified scheme catalog"
    )
    list_schemes.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one spec object per scheme, "
        "including declared parameter schemas)",
    )

    certify = sub.add_parser(
        "certify",
        help="prove + verify a legal instance of any registered scheme",
    )
    certify.add_argument("scheme", choices=sorted(catalog.names()))
    certify.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default=None,
        help="graph family (default: the scheme's own sampler)",
    )
    certify.add_argument("--n", type=int, default=32)
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a declared scheme parameter, e.g. --param eps=0.5 "
        "(repeatable; see list-schemes for declared parameters)",
    )
    certify.add_argument(
        "--attack",
        action="store_true",
        help="also attack an illegal (exact) or α-far (gap) instance",
    )
    certify.add_argument("--trials", type=int, default=60)
    certify.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="stream spans/events and a final counter snapshot to a "
        "JSONL trace file",
    )

    attack = sub.add_parser("attack", help="corrupt an instance and attack it")
    attack.add_argument("scheme", choices=sorted(catalog.names()))
    attack.add_argument("--family", choices=sorted(FAMILIES), default=None)
    attack.add_argument("--n", type=int, default=24)
    attack.add_argument(
        "--corruptions",
        type=int,
        default=2,
        help="corrupted registers (exact schemes; gap schemes build an "
        "α-far no-instance instead)",
    )
    attack.add_argument("--trials", type=int, default=100)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE"
    )

    experiment = sub.add_parser("experiment", help="run one experiment id")
    experiment.add_argument("which", choices=sorted(_EXPERIMENTS) + ["all"])
    experiment.add_argument(
        "--trace", default=None, metavar="OUT.JSONL",
        help="stream the run's instrumentation to a JSONL trace file",
    )

    sweep = sub.add_parser(
        "selfstab-sweep",
        help="fault-injection campaign over the incremental detection engine",
    )
    sweep.add_argument(
        "--detector",
        action="append",
        choices=sorted(SWEEP_DETECTORS),
        help="detector scheme (repeatable; default: all)",
    )
    sweep.add_argument(
        "--n",
        type=int,
        action="append",
        help="network size (repeatable; default: 32 64)",
    )
    sweep.add_argument(
        "--faults",
        type=int,
        action="append",
        help="fault burst size (repeatable; default: 1 2 4)",
    )
    sweep.add_argument("--runs", type=int, default=5, help="seeds per grid cell")
    sweep.add_argument("--seed", type=int, default=4242)
    sweep.add_argument(
        "--adversary",
        choices=sorted(ADVERSARIES),
        default=None,
        help="fault-placement strategy; selecting one (or --daemon-p) "
        "switches to the adversary-latency campaign (experiment adv) "
        "instead of the classic random-burst sweep",
    )
    sweep.add_argument(
        "--daemon-p",
        type=float,
        default=None,
        metavar="P",
        help="partial-activation daemon: each node verifies with "
        "probability P per round (default 0.3 for the adversary "
        "campaign; 1.0 = synchronous daemon)",
    )
    sweep.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a declared catalog parameter on every detector "
        "in the grid, e.g. --param eps=0.5 (repeatable; combine with "
        "--detector when the parameter only exists on some schemes)",
    )
    sweep.add_argument(
        "--trace", default=None, metavar="OUT.JSONL",
        help="stream the campaign's instrumentation (incl. per-cell "
        "events with the chosen params) to a JSONL trace file",
    )

    prof = sub.add_parser(
        "profile",
        help="certify one scheme under the flight recorder and print "
        "its cost counters and span timings",
    )
    prof.add_argument("scheme", choices=sorted(catalog.names()))
    prof.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default=None,
        help="graph family (default: the scheme's own sampler)",
    )
    prof.add_argument("--n", type=int, default=32)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE"
    )
    prof.add_argument(
        "--trace", default=None, metavar="OUT.JSONL",
        help="also stream the profile scope to a JSONL trace file",
    )

    profile = sub.add_parser(
        "error-profile",
        help="measure a scheme's error-sensitivity (rejections vs. distance)",
    )
    profile.add_argument("scheme", choices=sorted(catalog.names()))
    profile.add_argument("--n", type=int, default=24)
    profile.add_argument(
        "--distance",
        type=int,
        action="append",
        help="corruption distance (repeatable; default: 1 2 4 8 16)",
    )
    profile.add_argument("--samples", type=int, default=2,
                         help="corrupted configurations per distance")
    profile.add_argument("--trials", type=int, default=24,
                         help="adversarial attack budget per configuration")
    profile.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report",
        help="regenerate the measured record (default: ./EXPERIMENTS.md)",
    )
    report.add_argument("--output", default="EXPERIMENTS.md")

    envelope = sub.add_parser(
        "make-envelope",
        help="build a canonical proof envelope for any registered scheme",
    )
    envelope.add_argument("scheme", choices=sorted(catalog.names()))
    envelope.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default=None,
        help="graph family (default: the scheme's own sampler)",
    )
    envelope.add_argument("--n", type=int, default=32)
    envelope.add_argument("--seed", type=int, default=0)
    envelope.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE"
    )
    envelope.add_argument(
        "--corrupt",
        type=int,
        default=0,
        metavar="K",
        help="corrupt K node states after proving (the stale-prover "
        "configuration a sound scheme must reject)",
    )
    envelope.add_argument(
        "--no-certificates",
        action="store_true",
        help="omit certificates: the service runs the honest marker itself",
    )
    envelope.add_argument(
        "--nonce",
        default=None,
        help="anti-replay nonce (default: derived from --seed, so "
        "identical invocations replay-collide on purpose)",
    )
    envelope.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write wire bytes to FILE (default: stdout)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the certification service over the stdlib HTTP front end",
    )
    serve.add_argument("--host", default=None, help="bind address")
    serve.add_argument("--port", type=int, default=None)
    serve.add_argument(
        "--cache-size", type=int, default=256, help="verdict LRU capacity"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on concurrently served requests (past it: 429)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request socket read timeout in seconds",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log requests to stderr"
    )

    submit = sub.add_parser(
        "submit",
        help="POST envelope file(s) to a running server, print the verdict",
    )
    submit.add_argument(
        "envelope",
        nargs="+",
        help="wire-form envelope file(s); several files print as one "
        "JSON array, in file order",
    )
    submit.add_argument(
        "--url",
        default=None,
        help="server base URL (default: the local default bind)",
    )
    submit.add_argument(
        "--nonce",
        default=None,
        help="resubmit under this fresh nonce instead of the file's",
    )

    return parser


def _parse_param_overrides(pairs: Sequence[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise SystemExit(f"--param expects NAME=VALUE, got {item!r}")
        overrides[name] = value
    return overrides


def _make_instance(args) -> tuple:
    """(rng, fitted scheme, graph) for certify/attack, via the catalog."""
    spec = catalog.get(args.scheme)
    overrides = _parse_param_overrides(args.param)
    rng = make_rng(args.seed)
    if args.family is None:
        graph = spec.sample_graph(args.n, rng)
    else:
        graph = FAMILIES[args.family](args.n, rng)
        if spec.weighted:
            graph = weighted_copy(graph, rng)
    try:
        scheme = catalog.build(args.scheme, graph=graph, rng=rng, **overrides)
    except CatalogError as error:
        raise SystemExit(str(error))
    if not scheme.language.supports_graph(graph):
        raise SystemExit(
            f"{scheme.language.name} is not constructible on this graph; "
            f"try another --family"
        )
    return rng, scheme, graph


def _describe(spec) -> str:
    alpha = f"{spec.alpha:g}" if spec.alpha is not None else "-"
    params = (
        ",".join(f"{p.name}={p.default:g}" for p in spec.params)
        if spec.params
        else "-"
    )
    es = catalog.error_sensitivity_label(spec.error_sensitive)
    batch = "yes" if spec.batch else "no"
    gen = "yes" if spec.generate else "no"
    return (
        f"kind={spec.kind:<9} alpha={alpha:<5} params={params:<9} "
        f"es={es:<3} batch={batch:<3} gen={gen:<3} "
        f"bound={spec.size_bound:<44} "
        f"visibility={spec.visibility.value:<4} {spec.summary}"
    )


def _cmd_list_schemes(args) -> int:
    specs = catalog.specs()
    if args.json:
        import json

        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        print(f"{spec.name:<{width}}  {_describe(spec)}")
    return 0


def _scheme_line(scheme, spec) -> str:
    if isinstance(scheme, ApproxScheme):
        return (
            f"scheme: {scheme.name} (kind={spec.kind}, "
            f"alpha={scheme.alpha:g}, {scheme.size_bound})"
        )
    return f"scheme: {scheme.name} (kind={spec.kind}, {scheme.size_bound})"


def _attack_instance(
    scheme, graph: Graph, rng, corruptions: int
) -> tuple[Any, Any]:
    """(no-instance, related member) for the budgeted adversary."""
    member = scheme.language.member_configuration(graph, rng=rng)
    if isinstance(scheme, ApproxScheme):
        bad = scheme.gap_language.no_configuration(graph, rng=rng)
    else:
        bad = scheme.language.corrupted_configuration(
            graph, corruptions=corruptions, rng=rng
        )
    return bad, member


def _cmd_certify(args) -> int:
    spec = catalog.get(args.scheme)
    rng, scheme, graph = _make_instance(args)
    try:
        config = scheme.language.member_configuration(graph, rng=rng)
    except LanguageError as error:
        raise SystemExit(f"no yes-instance on this graph: {error}")
    certificates = batch_prove(scheme, config)
    verdict = scheme.run(config, certificates)
    max_bits, total_bits = scheme.proof_bits(certificates)
    print(f"graph: {graph!r}")
    print(_scheme_line(scheme, spec))
    if args.param:
        print(f"params: {' '.join(args.param)}")
    print(f"proof size: {max_bits} bits (mean "
          f"{total_bits / max(1, graph.n):.1f})")
    if isinstance(scheme, ApproxScheme):
        exact = scheme.exact_counterpart()
        exact_bits = exact.proof_size_bits(config)
        print(f"exact proof size: {exact_bits} bits ({exact.name})")
        print(f"gap saving: {exact_bits / max(1, max_bits):.1f}x")
    print(f"verification: all accept = {verdict.all_accept}")
    code = 0 if verdict.all_accept else 1
    if args.attack:
        try:
            if isinstance(scheme, ApproxScheme):
                bad = scheme.gap_language.no_configuration(graph, rng=rng)
            else:
                bad = scheme.language.corrupted_configuration(
                    graph, corruptions=2, rng=rng
                )
        except Exception as error:
            print(f"attack skipped: {error}")
            return code
        runner = (
            run_gap_attack if isinstance(scheme, ApproxScheme) else run_attack
        )
        result = runner(
            scheme, bad, rng=rng, trials=args.trials, related=[config]
        )
        target = (
            "an α-far no-instance"
            if isinstance(scheme, ApproxScheme)
            else "a corrupted instance"
        )
        print(f"attack on {target}: fooled = {result.fooled}; "
              f"minimum rejecting nodes reached: {result.min_rejects} "
              f"({result.evaluations} evaluations)")
        if result.fooled:
            code = 1
    return code


def _cmd_attack(args) -> int:
    rng, scheme, graph = _make_instance(args)
    try:
        bad, member = _attack_instance(scheme, graph, rng, args.corruptions)
    except Exception as error:
        raise SystemExit(f"could not build a no-instance: {error}")
    runner = run_gap_attack if isinstance(scheme, ApproxScheme) else run_attack
    result = runner(scheme, bad, rng=rng, trials=args.trials, related=[member])
    print(f"graph: {graph!r}, corruptions: {args.corruptions}")
    print(f"adversary evaluations: {result.evaluations}")
    print(f"fooled: {result.fooled}; minimum rejecting nodes reached: "
          f"{result.min_rejects}")
    return 1 if result.fooled else 0


def _cmd_experiment(args) -> int:
    names = sorted(_EXPERIMENTS) if args.which == "all" else [args.which]
    for name in names:
        result = _EXPERIMENTS[name]()
        print(result.to_table())
        print()
    return 0


def _cmd_selfstab_sweep(args) -> int:
    try:
        return _run_selfstab_sweep(args)
    except CatalogError as error:
        raise SystemExit(str(error))


def _run_selfstab_sweep(args) -> int:
    params = _parse_param_overrides(args.param) or None
    if args.adversary is not None or args.daemon_p is not None:
        result = _experiments.experiment_adversary_latency(
            sizes=tuple(args.n) if args.n else (32,),
            fault_counts=tuple(args.faults) if args.faults else (1, 2, 4),
            detectors=tuple(args.detector)
            if args.detector
            else ("st-pointer", "bfs-tree", "approx-dominating-set",
                  "es-spanning-tree"),
            adversaries=(args.adversary or "random",),
            daemon_p=args.daemon_p if args.daemon_p is not None else 0.3,
            seeds_per_cell=args.runs,
            rng=make_rng(args.seed),
            params=params,
        )
        print(result.to_table())
        undetected = sum(
            row[result.headers.index("illegal")]
            - row[result.headers.index("detected")]
            for row in result.rows
        )
        return 1 if undetected else 0
    result = _experiments.experiment_f4b_fault_sweep(
        sizes=tuple(args.n) if args.n else (32, 64),
        fault_counts=tuple(args.faults) if args.faults else (1, 2, 4),
        detectors=tuple(args.detector) if args.detector else None,
        seeds_per_cell=args.runs,
        rng=make_rng(args.seed),
        params=params,
    )
    print(result.to_table())
    # detected and false_neg partition the illegal runs, so missed
    # detections are exactly the false-negative tally.
    false_neg = result.headers.index("false neg")
    missed = sum(row[false_neg] for row in result.rows)
    return 1 if missed else 0


def _cmd_profile(args) -> int:
    from repro.local.verification_round import distributed_verification

    spec = catalog.get(args.scheme)
    rng, scheme, graph = _make_instance(args)
    try:
        config = scheme.language.member_configuration(graph, rng=rng)
    except LanguageError as error:
        raise SystemExit(f"no yes-instance on this graph: {error}")
    with _obs.collect(
        "profile", trace=args.trace, scheme=args.scheme, n=graph.n,
        seed=args.seed,
    ) as metrics:
        with _obs.span("certify", scheme=args.scheme):
            certificates = batch_prove(scheme, config)
            verdict = scheme.run(config, certificates)
        with _obs.span("message-path", scheme=args.scheme):
            message_verdict, _ = distributed_verification(
                scheme, config, certificates
            )
    print(f"graph: {graph!r}")
    print(_scheme_line(scheme, spec))
    if args.param:
        print(f"params: {' '.join(args.param)}")
    print(f"verification: all accept = {verdict.all_accept}, "
          f"backend={verdict.backend} "
          f"(message path agrees: {message_verdict == verdict})")
    print("counters:")
    for name, value in sorted(metrics.counters.items()):
        print(f"  {name:<22} {value}")
    print("spans:")
    print(f"  {'name':<26} {'calls':>6} {'seconds':>10}")
    for name, stat in sorted(metrics.spans.items()):
        print(f"  {name:<26} {stat.calls:>6} {stat.seconds:>10.6f}")
    if args.trace:
        print(f"trace written: {args.trace}")
    return 0 if verdict.all_accept and message_verdict == verdict else 1


def _cmd_error_profile(args) -> int:
    from repro.errorsensitive import measure_scheme_sensitivity

    sensitivity = measure_scheme_sensitivity(
        args.scheme,
        n=args.n,
        distances=tuple(args.distance) if args.distance else (1, 2, 4, 8, 16),
        samples_per_distance=args.samples,
        attack_trials=args.trials,
        rng=make_rng(args.seed),
    )
    print(f"scheme: {sensitivity.scheme} "
          f"(declared error-sensitive: "
          f"{catalog.error_sensitivity_label(sensitivity.declared)})")
    header = (f"{'kind':<8} {'edits':>5} {'dist':>7} {'stale':>6} "
              f"{'min rejects':>11} {'beta_d':>7}")
    print(header)
    print("-" * len(header))
    for s in sensitivity.samples:
        dist = f"{s.dist_lower}..{s.dist_upper}" if s.dist_lower != s.dist_upper \
            else str(s.dist_lower)
        print(f"{s.kind:<8} {s.injected:>5} {dist:>7} {s.stale_rejects:>6} "
              f"{s.min_rejects:>11} {s.beta_bound:>7.3f}")
    if sensitivity.skipped:
        print(f"({sensitivity.skipped} corruption bursts skipped: stayed "
              f"legal or landed in the gap region)")
    print(f"beta^ = {sensitivity.beta:.3f} rejections/edit "
          f"(threshold {sensitivity.threshold:g})")
    print(f"classification: {sensitivity.classification}")
    # A scheme declared error-sensitive that measures otherwise is a
    # regression; everything else is informational.
    return 0 if sensitivity.matches_declaration else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import main as report_main

    return report_main([args.output])


def _cmd_make_envelope(args) -> int:
    from repro.errors import ServiceError
    from repro.service import build_envelope

    graph = None
    if args.family is not None:
        rng = make_rng(args.seed)
        graph = FAMILIES[args.family](args.n, rng)
        if catalog.get(args.scheme).weighted:
            graph = weighted_copy(graph, rng)
    try:
        envelope = build_envelope(
            args.scheme,
            n=args.n,
            seed=args.seed,
            params=_parse_param_overrides(args.param),
            corrupt=args.corrupt,
            honest_certificates=not args.no_certificates,
            nonce=args.nonce,
            graph=graph,
        )
    except (CatalogError, ServiceError) as error:
        raise SystemExit(str(error))
    payload = envelope.to_bytes()
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(payload)
        print(f"wrote {envelope!r} ({len(payload)} bytes) to {args.out}",
              file=sys.stderr)
    else:
        sys.stdout.write(payload.decode("utf-8") + "\n")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import CertificationService
    from repro.service.httpd import (
        DEFAULT_HOST,
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_PORT,
        DEFAULT_REQUEST_TIMEOUT,
        make_server,
    )

    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    max_inflight = (args.max_inflight if args.max_inflight is not None
                    else DEFAULT_MAX_INFLIGHT)
    request_timeout = (args.request_timeout if args.request_timeout is not None
                       else DEFAULT_REQUEST_TIMEOUT)
    try:
        server = make_server(
            host,
            port,
            service=CertificationService(cache_size=args.cache_size),
            verbose=args.verbose,
            max_inflight=max_inflight,
            request_timeout=request_timeout,
        )
    except ValueError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    print(
        f"serving on http://{host}:{server.server_port} "
        f"(cache={args.cache_size}, max_inflight={max_inflight})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0


def _load_submit_payloads(args) -> list[bytes]:
    """Read the envelope files, applying ``--nonce`` when given.

    A nonce is set on the loaded JSON object, not on a decoded
    envelope: the canonical bytes of a canonical file under the new
    nonce are exactly ``envelope.with_nonce(nonce).to_bytes()``.  The
    server checks everything else.
    """
    import json

    from repro.errors import CanonicalError
    from repro.util.canonical import canonical_bytes

    payloads: list[bytes] = []
    for name in args.envelope:
        try:
            with open(name, "rb") as handle:
                payload = handle.read()
        except OSError as error:
            raise SystemExit(str(error))
        if args.nonce is not None:
            try:
                obj = json.loads(payload)
            except (ValueError, RecursionError) as error:
                raise SystemExit(f"{name}: not JSON: {error}")
            if not isinstance(obj, dict):
                raise SystemExit(f"{name}: not a JSON object")
            obj["nonce"] = args.nonce
            try:
                payload = canonical_bytes(obj)
            except (CanonicalError, RecursionError) as error:
                raise SystemExit(f"{name}: {error}")
        payloads.append(payload)
    return payloads


def _cmd_submit(args) -> int:
    import json

    from repro.errors import ReplayError, ServiceError
    from repro.service.client import CertifyClient
    from repro.service.httpd import DEFAULT_HOST, DEFAULT_PORT

    payloads = _load_submit_payloads(args)
    url = args.url or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    # Every file goes to /certify in turn on one keep-alive connection.
    # Exit 0 when every verdict accepted, 1 when any decided verdict
    # rejected, 2 when any envelope errored (replay / unservable).
    try:
        with CertifyClient(url) as client:
            outcomes = client.submit_many(payloads)
    except OSError as error:
        raise SystemExit(f"cannot reach {url}: {error}")
    rendered: list[dict] = []
    code = 0
    for outcome in outcomes:
        if isinstance(outcome, ReplayError):
            rendered.append({"error": str(outcome), "replay": True})
            code = 2
        elif isinstance(outcome, ServiceError):
            rendered.append({"error": str(outcome)})
            code = 2
        else:
            rendered.append(outcome.to_obj())
            if not outcome.accepted and code == 0:
                code = 1
    # One file prints its verdict object, several a JSON array.
    text = json.dumps(rendered[0] if len(rendered) == 1 else rendered,
                      indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader took what it wanted (``| grep -q``): the verdict
        # still decides the exit code.
        _quiet_stdout()
    return code


def _quiet_stdout() -> None:
    """Point stdout at the null device once its reader has gone.

    The interpreter flushes stdout at exit; into a closed pipe that
    flush would fail again and print ``Exception ignored``.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-schemes": _cmd_list_schemes,
        "certify": _cmd_certify,
        "attack": _cmd_attack,
        "experiment": _cmd_experiment,
        "selfstab-sweep": _cmd_selfstab_sweep,
        "profile": _cmd_profile,
        "error-profile": _cmd_error_profile,
        "report": _cmd_report,
        "make-envelope": _cmd_make_envelope,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    handler = handlers[args.command]
    trace = getattr(args, "trace", None)
    try:
        if trace is not None and args.command != "profile":
            # profile opens (and reports) its own scope; every other
            # traced command runs inside one scope named after it.
            with _obs.collect(args.command, trace=trace):
                code = handler(args)
        else:
            code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed early (``| head``): exit 1, no traceback.
        _quiet_stdout()
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
