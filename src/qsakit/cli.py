"""JSON batch front-end for compiling, verifying and analyzing schedules.

Every invocation but ``--help`` prints one RunReport JSON document to
standard output and exits 0 when all checks pass, 1 when a check fails (the
failing check names the violated invariant), 2 on malformed input (a
command line argparse refuses included), 3 when a resource limit is exceeded
(the dense oracle's env ``QSA_MAX_DENSE_QUBITS``, the stabilizer tableau's
``MAX_TABLEAU_SITES`` or the lattice spec's ``MAX_LATTICE_SITES``) and 4 on an
internal fault (any other exception, reported as ``internal-error``, with
its traceback on standard error).  Reports are strict JSON: a report
holding a NaN or an infinity is not printed, and the run exits 2.  Reports
are deterministic: identical input files and arguments produce
byte-identical output.  Artifacts (compiled schedules) go to files named by
``--out``; reports never mix with artifacts.

Only the symbolic layer is imported up front.  The dense oracle, the lattice
and anyon workflows and the analyses are imported by the handlers that use
them.  The lattice and anyon modules load no numpy, so the ``toric build``,
``toric ground``, ``anyon`` and above-the-dense-limit ``compile`` commands
never load it; the dense oracle and the analyses do.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys

from .dense_limit import ResourceLimitError, max_dense_qubits
from .pauli_core import PauliString, anticommuting_pairs, float_field, index_field, pair_field
from .schedule_compiler import (
    STRATEGIES,
    ConnectivityGraph,
    QsaSchedule,
    compile_schedule,
    validate,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_MALFORMED_INPUT = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4

#: Largest accepted distance between a digital sequence and the exact evolution.
DIGITAL_TOLERANCE = 1e-8

#: Time step of a digital sequence when ``--tau`` is not given.
DIGITAL_TAU = 0.3


class CliInputError(ValueError):
    """Unreadable or structurally invalid input file/argument."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _finite_number(value, field: str | None = None) -> float:
    """``float(value)``, refusing NaN, infinities and non-numbers.

    Every real number read from an option or derived from one goes through
    here (one read from a file goes through :func:`float_field`); a refusal
    is malformed input naming ``field``.
    """
    prefix = f"{field}: " if field else ""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise CliInputError(f"{prefix}invalid float value: {value!r}") from None
    if not math.isfinite(number):
        raise CliInputError(f"{prefix}must be a finite number, got {value!r}")
    return number


def _digest(argv, paths) -> str:
    """sha256 over the argument vector and every input file's bytes."""
    h = hashlib.sha256()
    h.update("\x1f".join(argv).encode("utf-8"))
    for path in paths:
        h.update(b"\x1e")
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<unreadable>")
    return h.hexdigest()


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _complex_pair(value) -> list:
    """``json.dumps`` hook: a complex number as ``[real, imag]``."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _report_text(report: dict) -> str:
    """Strict JSON: a NaN or infinite number raises ``ValueError``."""
    return json.dumps(
        report, indent=2, sort_keys=True, allow_nan=False, default=_complex_pair
    ) + "\n"


def _is_input_fault(exc: Exception) -> bool:
    """Whether ``exc`` blames the input: a ``ValueError``, ``TypeError`` or ``KeyError``.

    numpy's ``LinAlgError`` is a ``ValueError`` raised by a numerical routine
    that failed, a fault of the program.
    """
    np = sys.modules.get("numpy")  # a LinAlgError exists only once numpy is loaded
    if np is not None and isinstance(exc, np.linalg.LinAlgError):
        return False
    return isinstance(exc, (ValueError, TypeError, KeyError))


def _error_report(report: dict, status: str, error: str, code: int) -> int:
    """Print a report for a run that stopped before its checks; return ``code``."""
    report.update({
        "status": status, "error": error, "inputs_digest": _digest(report["command"], []),
        "checks": [], "metrics": {}, "artifacts": [],
    })
    sys.stdout.write(_report_text(report))
    return code


def _validator_checks(violations: list[str]) -> list[dict]:
    """One failing check per validator violation, or ``validator-clean``."""
    return [_check(v, False) for v in violations] or [_check("validator-clean", True)]


def _dense_check(report: dict, name: str = "dense-identity") -> dict:
    """A check from a :func:`compare_pulses` report, detailing its metric and distance."""
    return _check(name, report["passed"], f"{report['metric']} = {report['distance']:.3e}")


@contextlib.contextmanager
def _naming(kind: str, path: str | None):
    """Turn a ``KeyError``, ``TypeError`` or ``ValueError`` raised inside into
    ``CliInputError("bad {kind} {path}: ...")``; with no ``path`` it passes through.

    Wrap only the reading of a file's values: a library refusal keeps its own text.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        if path is None:
            raise
        raise CliInputError(f"bad {kind} {path}: {exc}") from exc


def _load_graph(path: str) -> ConnectivityGraph:
    """A connectivity graph file; a missing or non-integer field or a bad edge names the file."""
    data = _load_json(path)  # its CliInputError already names the file
    with _naming("graph file", path):
        return ConnectivityGraph.from_dict(data)


def _load_schedule(path: str) -> QsaSchedule:
    """A schedule file; a missing or malformed field names the file."""
    data = _load_json(path)
    with _naming("schedule file", path):
        return QsaSchedule.from_dict(data)


# -- subcommand handlers ------------------------------------------------------------
# Each handler returns (checks, metrics, artifacts, input_paths).


def _cmd_compile(args):
    target = PauliString.parse(args.target)
    paths = []
    graph = None  # every pair of support sites coupled
    if args.graph is not None:
        graph = _load_graph(args.graph)
        paths.append(args.graph)
    # compile_schedule raises unless its schedule replays to the target and
    # keeps every shape rule of validate, so the validator is clean
    schedule = compile_schedule(target, graph, strategy=args.strategy, tg=args.tg)
    checks = [_check("validator-clean", True)]
    metrics = {
        "target": target.format(),
        "n_sites": schedule.n_sites,
        "depth": schedule.depth,
        "n_attachments": schedule.n_attachments,
        "n_swappers": len(schedule.final_swappers),
        "strategy": args.strategy,
        "tg": schedule.tg,
    }
    if schedule.n_sites <= max_dense_qubits():
        from .dense_oracle import verify_schedule

        report = verify_schedule(schedule)
        checks.append(_dense_check(report))
        metrics["dense_distance"] = report["distance"]
    else:
        metrics["dense_verification"] = "skipped: register above dense limit"

    artifacts = []
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(schedule.to_json())
                fh.write("\n")
            with open(args.out, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot write {args.out}: {exc}") from exc
        checks.append(_check("artifact-round-trip", QsaSchedule.from_json(text) == schedule))
        artifacts.append(args.out)
    return checks, metrics, artifacts, paths


def _cmd_verify(args):
    from .dense_oracle import verify_schedule

    schedule = _load_schedule(args.schedule)
    if args.tg is not None:  # verify a copy of the schedule at that seed angle
        schedule = dataclasses.replace(schedule, tg=args.tg)
    paths = [args.schedule]
    graph = None
    if args.graph is not None:
        graph = _load_graph(args.graph)
        paths.append(args.graph)

    checks = _validator_checks(validate(schedule, graph))
    metrics = {
        "target": schedule.target.format(),
        "n_sites": schedule.n_sites,
        "depth": schedule.depth,
        "tg": schedule.tg,
    }
    if checks[0]["passed"]:
        report = verify_schedule(schedule)
        checks.append(_dense_check(report))
        metrics["dense_distance"] = report["distance"]
        metrics["dense_metric"] = report["metric"]
    return checks, metrics, [], paths


def _lattice_spec(path: str):
    """A lattice spec file as a :class:`~qsakit.toric_lattice.LatticeSpec`.

    A missing or malformed field, or a spec its own checks refuse, names the file.
    """
    from .toric_lattice import LatticeSpec

    data = _load_json(path)  # its CliInputError already names the file
    with _naming("lattice spec", path):
        return LatticeSpec.from_dict(data)


def _cmd_toric(args):
    from .toric_lattice import (
        build_variant,
        digital_sequence,
        ground_state_projector,
        ground_state_sweep,
    )

    spec = _lattice_spec(args.spec)
    paths = [args.spec]
    checks = []
    metrics = {
        "rows": spec.rows,
        "cols": spec.cols,
        "boundary": spec.boundary,
        "model": spec.model,
        "n_sites": spec.n_sites,
    }

    if args.action == "build":
        pset = build_variant(spec)
        # the builders do not re-check their sets: a faulty term table shows here
        clashing = anticommuting_pairs(pset.operators())
        detail = None
        if clashing:
            a, b = (pset.terms[k] for k in clashing[0])
            detail = f"terms {a.index}/{a.kind} and {b.index}/{b.kind} do not commute"
        checks.append(_check("terms-pairwise-commute", not clashing, detail))
        overlap = pset.group_overlap()
        detail = None
        if overlap is not None:
            group, sites = overlap
            detail = f"group {group} members share sites {sites}"
        checks.append(_check("groups-support-disjoint", overlap is None, detail))
        metrics["n_terms"] = len(pset.terms)
        metrics["group_sizes"] = {
            str(g): len(t) for g, t in sorted(pset.groups().items())
        }

    elif args.action == "ground":
        # stabilizer states: the fidelity and every expectation are exact
        reference = ground_state_projector(spec)
        ops = build_variant(spec).operators()
        if spec.boundary == "open":
            swept, stages = ground_state_sweep(spec)
            fid = swept.overlap(reference)
            checks.append(
                _check(
                    "sweep-matches-projector",
                    fid == 1.0,
                    f"|<sweep|projector>|^2 = {fid:.12f}",
                )
            )
            metrics["sweep_fidelity"] = fid
            metrics["sweep_stages"] = len(stages)
            state = swept
        else:
            state = reference
        worst = float(min((state.expectation(op) for op in ops), default=1))
        checks.append(
            _check("plaquette-expectations-plus-one", worst == 1.0, f"min Re<P> = {worst:.12f}")
        )
        metrics["min_expectation"] = worst
        metrics["n_terms"] = len(ops)

    else:  # digital
        from .dense_oracle import compare_segments

        seq = digital_sequence(spec, args.tau)
        # the terms commute and are Pauli involutions, so the exact evolution
        # is the product of per-term rotations; each schedule is judged
        # against its own term where that certifies the whole program
        exact = [(term, coeff * args.tau) for coeff, term in seq.hamiltonian().terms]
        report = compare_segments(spec.n_sites, seq.segments(), exact, DIGITAL_TOLERANCE)
        checks.append(_dense_check(report, "digital-matches-exponential"))
        metrics.update(
            tau=args.tau, n_stages=len(seq.stages),
            distance=report["distance"], distance_metric=report["metric"],
        )
    return checks, metrics, [], paths


def _payload(args) -> dict:
    if args.path is None:
        return {}
    data = _load_json(args.path)
    if not isinstance(data, dict):
        raise CliInputError(f"{args.path} must hold a JSON object")
    return data


def _cmd_anyon(args):
    from . import anyon_logic

    spec = _lattice_spec(args.spec)
    paths = [args.spec]
    if args.path is not None:
        paths.append(args.path)
    payload = _payload(args)
    checks = []
    metrics = {"n_sites": spec.n_sites}

    if args.action == "syndrome":
        if args.path is None:
            raise CliInputError("anyon syndrome requires --path")
        with _naming("path file", args.path):
            string_path = anyon_logic.StringPath.from_dict(payload)
        predicted = anyon_logic.predict_syndrome(string_path, spec)
        actual = anyon_logic.syndrome_of(string_path, spec)
        checks.append(
            _check(
                "prediction-matches-anticommutation",
                predicted.entries == actual.entries,
                {"predicted": predicted.to_dict(), "actual": actual.to_dict()},
            )
        )
        metrics["syndrome"] = actual.to_dict()
        metrics["string"] = anyon_logic.path_string(string_path, spec).format()
        metrics["closed"] = anyon_logic.path_is_closed(string_path, spec)

    elif args.action == "braid":
        with _naming("path file", args.path):
            center = pair_field(payload.get("center", [1, 1]), "center")
        report = anyon_logic.braiding_phase(spec, center)
        checks.append(
            _check(
                "braiding-phase-minus-one",
                abs(report["braiding_phase"] + 1.0) <= 1e-10,
                f"phase = {report['braiding_phase']:+.12f}",
            )
        )
        checks.append(
            _check(
                "ground-loop-expectation-plus-one",
                abs(report["expectation_ground"] - 1.0) <= 1e-10,
            )
        )
        metrics.update(report)

    elif args.action == "memory":
        with _naming("path file", args.path):
            raw = payload.get("amplitudes", [0.5, 0.5, 0.5, 0.5])
            if not isinstance(raw, list) or len(raw) != 4:
                raise CliInputError(f"amplitudes must hold four entries, got {raw!r}")
            amplitudes = anyon_logic._unit_amplitudes(
                _amplitude(a, f"amplitudes[{k}]") for k, a in enumerate(raw))
        basis = anyon_logic.memory_basis(spec)
        worst_pair = max(
            math.sqrt(basis[i].overlap(basis[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        )
        checks.append(
            _check(
                "basis-pairwise-orthogonal",
                worst_pair <= 1e-10,
                f"max |overlap| = {worst_pair:.3e}",
            )
        )
        overlaps = anyon_logic.memory_encode(spec, amplitudes, basis[0])
        err = max(abs(o - a) for o, a in zip(overlaps, amplitudes))
        checks.append(
            _check(
                "encoded-overlaps-match",
                err <= 1e-8,
                f"max |<basis|state> - target| = {err:.3e}",
            )
        )
        metrics["amplitudes"] = amplitudes
        metrics["overlaps"] = overlaps
        metrics["max_overlap_error"] = err

    elif args.action == "magic":
        with _naming("path file", args.path):
            theta = float_field(payload.get("theta", math.pi / 4.0), "theta")
            hole = _hole_from_payload(payload, spec, "hole", default=0)
        report = anyon_logic.magic_report(hole, theta, spec)
        checks.append(
            _check(
                "magic-state-fidelity",
                report["fidelity"] >= 1.0 - 1e-10,
                f"fidelity = {report['fidelity']:.12f}",
            )
        )
        metrics.update(report)

    else:  # cnot
        with _naming("path file", args.path):
            control = _hole_from_payload(payload, spec, "control", default=0)
            target = _hole_from_payload(payload, spec, "target", default=1)
        gate = anyon_logic.loop_cnot(control, target, spec)
        table = gate.truth_table()
        for row in table["rows"]:
            c, t = row["input"]
            checks.append(
                _check(
                    f"truth-table-row-{c}{t}",
                    row["distance"] <= 1e-8,
                    f"|out - expected| = {row['distance']:.3e}",
                )
            )
        metrics["max_distance"] = table["max_distance"]
        metrics["braid"] = gate.braid.format()
        metrics["braid_weight"] = gate.braid.weight
        metrics["recorded_phase_control1"] = complex(-1j)
    return checks, metrics, [], paths


def _amplitude(entry, field: str) -> complex:
    """A memory amplitude: a number or a ``[re, im]`` pair, every part finite."""
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise CliInputError(f"{field}: expected a number or [re, im], got {entry!r}")
        re, im = (float_field(part, f"{field}[{k}]") for k, part in enumerate(entry))
        return complex(re, im)
    return complex(float_field(entry, field))


def _hole_from_payload(payload, spec, key, default):
    """The spec's hole that the payload's ``key`` indexes."""
    idx = index_field(payload.get(key, default), key)
    if not (0 <= idx < len(spec.holes)):
        raise CliInputError(
            f"{key}: index {idx} out of range: spec defines {len(spec.holes)} hole(s)"
        )
    return spec.holes[idx]


def _cmd_strength(args):
    from . import analysis

    params = analysis.StrengthParams(
        g=args.g,
        t=args.t,
        tau=args.tau,
        tau_prime=args.tau_prime,
        omega=args.omega,
        omega_prime=args.omega_prime,
        n=args.n,
    )
    # an overflow in a derived number is malformed input, named like an option
    tau, tau_prime = (
        _finite_number(x, name) for x, name in zip(params.durations(), ("tau", "tau_prime"))
    )
    t_prime = _finite_number(params.total_time(), "t_prime")
    g_prime = _finite_number(analysis.strength_target(params), "g_prime")
    conserved = abs(params.t * params.g - t_prime * g_prime)
    checks = [
        _check(
            "conservation-tg",
            conserved <= 1e-12 * max(1.0, abs(params.t * params.g)),
            f"|t g - t' g'| = {conserved:.3e}",
        )
    ]
    metrics = {
        "g": params.g,
        "t": params.t,
        "tau": tau,
        "tau_prime": tau_prime,
        "n": params.n,
        "g_prime": g_prime,
        "t_prime": t_prime,
        "regime_tau_exceeds_t": bool(tau + tau_prime > params.t),
    }
    if params.n == 1:
        g_w = _finite_number(analysis.strength_toric(params), "g_wall")
        checks.append(_check("toric-quarter-of-target", g_w * 4.0 == g_prime))
        metrics["g_wall"] = g_w
        metrics["wall_ratio"] = g_w / params.g if params.g else None
    return checks, metrics, [], []


def _cmd_error_scaling(args):
    from . import analysis
    from .toric_lattice import digital_sequence

    if (args.schedule is None) == (args.digital is None):
        raise CliInputError("provide exactly one subject: --schedule or --digital")
    if args.schedule is not None:
        if args.tau is not None:
            raise CliInputError(
                "--tau sets the time step of a --digital subject; a --schedule has none"
            )
        subject = _load_schedule(args.schedule)
        paths = [args.schedule]
    else:
        spec = _lattice_spec(args.digital)
        subject = digital_sequence(spec, DIGITAL_TAU if args.tau is None else args.tau)
        paths = [args.digital]
    deltas = tuple(_finite_number(x, "--deltas") for x in args.deltas.split(","))
    report = analysis.error_scaling(subject, deltas=deltas, seed=args.random_offsets)
    checks = [
        _check(
            "slope-first-order",
            0.9 <= report["slope"] <= 1.1,
            f"log-log slope = {report['slope']:.4f}",
        )
    ]
    return checks, report, [], paths


# -- parser -------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for real-valued options (see :func:`_finite_number`)."""
    try:
        return _finite_number(text)
    except CliInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_int(text: str) -> int:
    """argparse type for the seed of ``--random-offsets``: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusal is malformed input with a report.

    argparse's usage line and message still go to standard error; the
    :class:`CliInputError` raised in place of its exit gets the JSON report.
    Subparsers are made of this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise CliInputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (``parse_args`` keeps no state).

    Each action accepts only the options its handler reads.
    """
    parser = _Parser(
        prog="qsakit",
        description="Compile, verify and analyze exact N-body pulse schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a Pauli target")
    p.add_argument("--target", required=True, help="Pauli literal, e.g. XZZX")
    p.add_argument("--graph", default=None, help="connectivity graph JSON file")
    p.add_argument("--strategy", default="auto", choices=STRATEGIES)
    p.add_argument("--tg", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None, help="write the schedule JSON here")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("verify", help="verify a schedule file")
    p.add_argument("--schedule", required=True)
    p.add_argument("--tg", type=_finite_float, default=None)
    p.add_argument("--graph", default=None)
    p.set_defaults(handler=_cmd_verify)

    toric = sub.add_parser("toric", help="lattice builds and states")
    actions = toric.add_subparsers(dest="action", required=True)
    for action in ("build", "ground", "digital"):
        p = actions.add_parser(action)
        p.add_argument("--spec", required=True, help="lattice spec JSON file")
        p.set_defaults(handler=_cmd_toric)
    p.add_argument("--tau", type=_finite_float, default=DIGITAL_TAU)  # digital only

    p = sub.add_parser("anyon", help="anyon experiments")
    p.add_argument(
        "action", choices=["syndrome", "braid", "memory", "magic", "cnot"]
    )
    p.add_argument("--spec", required=True, help="lattice spec JSON file")
    p.add_argument(
        "--path",
        default=None,
        help="experiment payload JSON (string path, amplitudes, hole indexes...)",
    )
    p.set_defaults(handler=_cmd_anyon)

    analyze = sub.add_parser("analyze", help="strength and error scaling")
    actions = analyze.add_subparsers(dest="action", required=True)
    p = actions.add_parser("strength")
    p.add_argument("--g", type=_finite_float, default=1.0)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--tau", type=_finite_float, default=None)
    p.add_argument("--tau-prime", type=_finite_float, default=None)
    p.add_argument("--omega", type=_finite_float, default=None)
    p.add_argument("--omega-prime", type=_finite_float, default=None)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(handler=_cmd_strength)

    p = actions.add_parser("error-scaling")
    p.add_argument("--schedule", default=None)
    p.add_argument("--digital", default=None, help="lattice spec JSON file")
    p.add_argument("--tau", type=_finite_float, default=None,
                   help=f"time step of the --digital sequence (default {DIGITAL_TAU})")
    p.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    p.add_argument(
        "--random-offsets", metavar="SEED", type=_seed_int, nargs="?", const=11,
        default=None, help="draw each angle offset from [-delta, delta] with this "
        "seed (at least 0; default 11) instead of offsetting every angle by delta",
    )
    p.set_defaults(handler=_cmd_error_scaling)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report = {"command": argv}
    try:
        args = _build_parser().parse_args(argv)  # a refusal raises CliInputError
        checks, metrics, artifacts, paths = args.handler(args)
        passed = all(c["passed"] for c in checks)
        report.update(
            {
                "status": "pass" if passed else "fail",
                "inputs_digest": _digest(argv, paths),
                "checks": checks,
                "metrics": metrics,
                "artifacts": artifacts,
            }
        )
        text = _report_text(report)
    except SystemExit:  # only --help stops the parser, after printing the help
        return EXIT_PASS
    except ResourceLimitError as exc:
        return _error_report(report, "resource-limit", str(exc), EXIT_RESOURCE_LIMIT)
    except Exception as exc:
        if _is_input_fault(exc):
            return _error_report(
                report, "malformed-input", f"{type(exc).__name__}: {exc}", EXIT_MALFORMED_INPUT
            )
        import traceback  # a fault of the program, not of its input

        traceback.print_exc()  # to stderr; stdout keeps the one JSON report
        return _error_report(
            report, "internal-error", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL_ERROR
        )
    sys.stdout.write(text)
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE
