"""Benchmark for qsakit: one workload, one process, every metric by name.

Usage, from the root of the repository:

    python3 bench/run.py --workload compile-symbolic --seed 1 --seconds 20 --trace 0

The runner imports ``qsakit`` from ``src/`` of the same checkout, writes the
seeded input batch of the workload into a work directory, runs one
untimed warm-up of each kind of operation, and then repeats whole passes over
the batch through ``qsakit.cli.main(argv)`` (stdout captured) until
``--seconds`` have passed, with at least three passes. ``gc.collect()`` runs
between operations, outside the timed region. Every report of the first pass
is checked against computations made apart from the program (``checks.py``);
later passes must reproduce the first pass byte for byte.

Every time in the end-to-end metrics is scaled to a reference host speed
(``hostspeed.py``): a fixed kernel is timed after every operation and around
every set-up part, and each time is scaled by the kernel times around it. The
unscaled figures go to stderr.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The traced run also writes its spans to
``.bench_out/``. A summary goes to stderr.
"""

import os

# distance() and expm() call LAPACK: pin every BLAS/OpenMP pool to one thread
# before numpy loads, so one workload occupies one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_KERNEL_REPEATS = 5  # set-up parts are few, so each kernel time is a median
# Weight of the Python half of the host-speed kernel, fitted per workload
# (bench/README.md, "Host-speed scaling").
KERNEL_PYTHON_SHARE = {"compile-symbolic": 0.75, "verify-dense": 0.0, "lattice-anyon": 0.75}


def parse_args(argv):
    from inputs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    return p.parse_args(argv)


def import_cli():
    """``qsakit.cli`` from this checkout's ``src/``, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qsakit.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qsakit from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: qsakit resolves to {cli.__file__}, outside {SRC}")
    return cli


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports ``qsakit.cli`` and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import qsakit.cli"], env=env, check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def batch_digest(batch) -> str:
    h = hashlib.sha256()
    for op in batch.ops:
        h.update(json.dumps(op.argv).encode())
        for arg in op.argv:
            if arg.endswith(".json") and Path(arg).exists() and arg != op.out:
                h.update(Path(arg).read_bytes())
    return h.hexdigest()


def run_op(cli, op):
    """(exit code, stdout, seconds) of one CLI call; a crash is exit code -1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception as exc:  # a crash is a failed operation, not a benchmark fault
            rc = -1
            print(f"bench: {op.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = perf_counter() - t0
    return rc, buf.getvalue(), seconds


def check_outputs(batch, first) -> tuple[list, list]:
    """Independent checks of the first pass; returns (errors, schedule sizes)."""
    import checks

    errors, sizes = [], []
    for op in batch.ops:
        rc, text, artifact = first[op.name]
        if rc != op.expect_rc:
            continue  # counted in `failed`
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            errors.append(f"{op.name}: report is not JSON")
            continue
        facts = op.facts
        action = op.kind.split("/")[1]
        if op.kind.startswith("compile/"):
            schedule = json.loads(artifact)
            found = checks.check_compile(facts, rc, report, schedule)
            sizes.append(checks.schedule_size(schedule))
        elif "schedule" in facts:
            schedule = facts["schedule"]
            sizes.append(checks.schedule_size(schedule))
            if facts["role"] == "error-scaling":
                found = checks.check_slope(rc, report)
            else:
                found = checks.check_verify(facts, rc, report)
            if not facts["role"].startswith("defect") and schedule["n_sites"] <= 8:
                dist = checks.kron_schedule_distance(schedule)
                if dist > 1e-9:
                    found.append(f"kron/expm pulse product is {dist:.3e} from exp(-i tg P)")
        elif action == "build":
            found = checks.check_build(facts["spec"], rc, report)
        elif action == "ground":
            found = checks.check_ground(facts["spec"], rc, report)
        elif action in ("digital", "error-scaling"):
            found = (checks.check_digital(rc, report) if action == "digital"
                     else checks.check_slope(rc, report))
            found += lattice_schedule_checks(facts, action, sizes)
        elif action == "syndrome":
            found = checks.check_syndrome(facts["spec"], facts["path"], rc, report)
        elif action == "braid":
            found = checks.check_braid(facts["center"], rc, report)
        elif action == "memory":
            found = checks.check_memory(facts["amplitudes"], rc, report)
        elif action == "magic":
            found = checks.check_magic(facts["theta"], rc, report)
        else:
            found = checks.check_cnot(rc, report)
        errors += [f"{op.name}: {e}" for e in found]
    return errors, sizes


def lattice_schedule_checks(facts, action, sizes) -> list:
    """Schedules of the digital program: their size, and (digital) the unitary."""
    import checks
    from qsakit import LatticeSpec, digital_sequence

    seq = digital_sequence(LatticeSpec.from_dict(facts["spec"]), facts["tau"])
    sizes += [checks.schedule_size(s.to_dict()) for stage in seq.stages for s in stage]
    if action != "digital":
        return []
    return checks.check_digital_unitary(facts["spec"], facts["tau"], seq.unitary())


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    cli = import_cli()
    from inputs import make_batch
    import hostspeed
    import tracing

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        # set-up parts alternate import, generation, import, ...; a kernel
        # time is taken before and after each part
        setup_raw, digests = [], set()
        setup_kernel = [hostspeed.calibrate(SETUP_KERNEL_REPEATS)]
        for _ in range(SETUP_REPEATS):
            setup_raw.append(fresh_import_seconds())
            setup_kernel.append(hostspeed.calibrate(SETUP_KERNEL_REPEATS))
            t0 = perf_counter()
            batch = make_batch(args.workload, args.seed, str(workdir), args.size)
            setup_raw.append(perf_counter() - t0)
            setup_kernel.append(hostspeed.calibrate(SETUP_KERNEL_REPEATS))
            digests.add(batch_digest(batch))
        share = KERNEL_PYTHON_SHARE[args.workload]
        setup_scaled = hostspeed.scaled(setup_raw, setup_kernel, share)
        setup_s = statistics.median(setup_scaled[0::2]) + statistics.median(setup_scaled[1::2])
        raw_setup_s = statistics.median(setup_raw[0::2]) + statistics.median(setup_raw[1::2])
        for key, value in batch.env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

        tracer = tracing.Tracer()
        if args.trace:
            tracing.install(tracer)

        warmed = set()
        for op in batch.ops:
            if op.kind not in warmed:
                warmed.add(op.kind)
                run_op(cli, op)

        names, raw, kernel = [], [], [hostspeed.calibrate()]
        first, changed = {}, []
        attempted = failed = passes = 0
        started = perf_counter()
        while passes < MIN_PASSES or perf_counter() - started < args.seconds:
            for index, op in enumerate(batch.ops):
                gc.collect()
                tracer.op, tracer.active = index, bool(args.trace)
                rc, text, seconds = run_op(cli, op)
                tracer.active = False
                kernel.append(hostspeed.calibrate())
                artifact = Path(op.out).read_bytes() if op.out and rc == 0 else None
                attempted += 1
                failed += rc != op.expect_rc
                names.append(op.name)
                raw.append(seconds)
                if op.name not in first:
                    first[op.name] = (rc, text, artifact)
                elif first[op.name] != (rc, text, artifact):
                    changed.append(f"{op.name}: pass {passes + 1} output differs from pass 1")
            passes += 1
        wall = perf_counter() - started

        errors, sizes = check_outputs(batch, first)
        if len(digests) != 1:
            errors.append("input generation is not deterministic for this seed")
        errors += changed
        times = {op.name: [] for op in batch.ops}
        for name, seconds in zip(names, hostspeed.scaled(raw, kernel, share)):
            times[name].append(seconds)
        ops_per_s = attempted / sum(sum(t) for t in times.values())
        raw_ops_per_s = attempted / sum(raw)
        medians = {name: statistics.median(t) for name, t in times.items()}
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(str(spans))
            metrics = tracer.metrics(passes)
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "op_geomean_s": (math.exp(statistics.fmean(
                    math.log(m) for m in medians.values())), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "pulses_per_schedule": (statistics.fmean(p for p, _ in sizes), "pulses"),
                "depth_per_schedule": (statistics.fmean(d for _, d in sizes), "layers"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"bench: CHECK FAILED {error}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"attempted={attempted} failed={failed} timed={sum(raw):.3f}s wall={wall:.3f}s",
          file=sys.stderr)
    print(f"bench: kernel medians {statistics.median(c[0] for c in kernel) * 1e3:.2f} ms "
          f"(Python), {statistics.median(c[1] for c in kernel) * 1e3:.2f} ms (array); "
          f"scaled ops_per_s={ops_per_s:.4f} "
          f"setup_s={setup_s:.3f}; unscaled ops_per_s={raw_ops_per_s:.4f} "
          f"setup_s={raw_setup_s:.3f}", file=sys.stderr)
    for name, median in medians.items():
        print(f"bench:   {name:42s} median {median * 1e3:10.2f} ms (scaled)", file=sys.stderr)
    if args.trace:
        print(f"bench: spans written to {spans.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
