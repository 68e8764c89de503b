"""Host-speed calibration: a fixed reference kernel timed between operations.

The benchmark shares a few cores of a host with other guests, and the host's
speed drifts by up to 1.7x over tens of seconds with no change of code (CPU
time equals wall time, so nothing in the process can see it). The same
drift slows a fixed reference kernel that imports nothing from qsakit. The
runner times this kernel before the timed passes and after every operation,
and scales each operation's time to a host where the kernel takes its
reference time. A change to qsakit moves a scaled time in full; a change of
host speed mostly cancels.

The kernel has two halves, timed apart, for the two kinds of work the
workloads do: Pauli-letter products with dict and string work in pure
Python, and array work in numpy (gathers and products on a 2^16 array into
preallocated buffers, and the singular values of a 96x96 matrix). Each
takes about 5 ms on a 2.1 GHz Xeon vCPU. Contention slows the two by
different factors, so a workload is scaled by the weighted geometric mean
of the two, with the weight of the Python half (``python_share``) fitted
per workload (see the README). The arrays hold about 3 MB, so the kernel
adds little to ``peak_rss_mb``.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_PYTHON_S = 0.005
REFERENCE_ARRAY_S = 0.005

_PRODUCT = {}
for _a in "IXYZ":
    for _b in "IXYZ":
        if _a == "I" or _b == "I":
            _PRODUCT[_a, _b] = _b if _a == "I" else _a
        else:
            _PRODUCT[_a, _b] = "I" if _a == _b else ({"X", "Y", "Z"} - {_a, _b}).pop()
_WORDS = ["".join("IXYZ"[(i * 7 + j * 3 + i * j) % 4] for j in range(48)) for i in range(40)]
_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_VECTOR = _rng.standard_normal(1 << 16) + 0j
_ORDER = _rng.permutation(1 << 16)
_CONJUGATE = _VECTOR.conj()
_GATHERED = np.empty_like(_VECTOR)
_PRODUCT_VECTOR = np.empty_like(_VECTOR)


def _python_half():
    seen = {}
    for i, u in enumerate(_WORDS):
        for v in _WORDS[i:i + 24]:
            w = "".join([_PRODUCT[pair] for pair in zip(u, v)])
            seen[w] = seen.get(w, 0) + 1
    return len(seen)


def _array_half():
    np.linalg.svd(_MATRIX @ _MATRIX, compute_uv=False)
    total = 0j
    for _ in range(4):
        np.take(_VECTOR, _ORDER, out=_GATHERED)
        np.multiply(_GATHERED, _CONJUGATE, out=_PRODUCT_VECTOR)
        total += _PRODUCT_VECTOR.sum()
    return total


def _seconds(half) -> float:
    t0 = perf_counter()
    half()
    return perf_counter() - t0


def calibrate(repeats: int = 1) -> tuple[float, float]:
    """Seconds the Python and the array half take now: medians of ``repeats`` runs."""
    times = [(_seconds(_python_half), _seconds(_array_half)) for _ in range(repeats)]
    return median(t[0] for t in times), median(t[1] for t in times)


def scaled(seconds: list, kernel: list, python_share: float) -> list:
    """Each of ``seconds`` as on the reference host.

    ``kernel[k]`` is the (Python, array) kernel time taken just before
    ``seconds[k]``, and ``kernel[k + 1]`` the one just after it. Each half is
    the median of the two kernel times before and the two after the interval,
    so one slow kernel sample (an interrupt, say) does not move it.
    """
    if len(kernel) != len(seconds) + 1:
        raise ValueError("need one kernel time before and after every interval")
    out = []
    for k, t in enumerate(seconds):
        near = kernel[max(0, k - 1):k + 3]
        python_s = median(c[0] for c in near)
        array_s = median(c[1] for c in near)
        out.append(t * (REFERENCE_PYTHON_S / python_s) ** python_share
                   * (REFERENCE_ARRAY_S / array_s) ** (1 - python_share))
    return out


_python_half()  # first calls pay for allocation and LAPACK set-up
_array_half()
