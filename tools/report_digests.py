"""Print one digest line for every report and artifact of the benchmark's batches.

Run it from the root of a checkout:

    python3 tools/report_digests.py --seeds 1 2 3 --workdir /tmp/digests

For each workload (all three, unless ``--workloads`` names some) and each
seed, it writes the input batch of ``bench/inputs.make_batch`` into
``<workdir>/<workload>-<seed>``, applies the batch's environment, runs every
op through ``qsakit.cli.main`` in this process, with ``qsakit`` imported from
this checkout's ``src/``, and prints one line per op:

    workload seed op exit sha256(stdout) sha256(artifact or -)

A report holds its command line and a digest of its input files, and the
batch is the same on every checkout, so two checkouts run with the same
``--workdir`` print the same lines exactly when every stdout report and every
``--out`` artifact is byte-identical; ``diff`` the two outputs.  BLAS is
pinned to one thread before numpy loads, as in ``bench/run.py``.  Seeds 1-3
of all three workloads (159 ops) take about 2 s on a 2-CPU machine.
"""

import os

# pin every BLAS/OpenMP pool to one thread before numpy loads, as bench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
for _path in (SRC, BENCH):
    sys.path.insert(0, str(_path))

import inputs  # noqa: E402
import qsakit.cli as cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workload: str, seed: int, workdir: str, size: str):
    """The line of each op of the batch, as the module docstring gives it."""
    batch_dir = Path(workdir) / f"{workload}-{seed}"
    batch_dir.mkdir(parents=True, exist_ok=True)
    batch = inputs.make_batch(workload, seed, str(batch_dir), size)
    for key, value in batch.env.items():  # each batch sets or unsets every variable any batch sets
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    for op in batch.ops:
        if op.out is not None:
            Path(op.out).unlink(missing_ok=True)  # left by an earlier run
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(list(op.argv))
        artifact = "-"
        if op.out is not None and Path(op.out).exists():
            artifact = _sha256(Path(op.out).read_bytes())
        report = _sha256(stdout.getvalue().encode("utf-8"))
        yield f"{workload} {seed} {op.name} {rc} {report} {artifact}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", choices=inputs.WORKLOADS,
                   default=list(inputs.WORKLOADS))
    p.add_argument("--workdir", required=True,
                   help="where the batches are written; reports name its paths")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"report_digests: qsakit resolves to {cli.__file__}, outside {SRC}")
    for workload in args.workloads:
        for seed in args.seeds:
            for line in digests(workload, seed, args.workdir, args.size):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
