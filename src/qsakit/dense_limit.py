"""The dense-register cap, readable without loading the dense oracle.

Dense work (``4^n`` matrices, ``2^n`` statevectors) is capped by the
environment variable ``QSA_MAX_DENSE_QUBITS`` (default 14).  The cap lives
here, apart from :mod:`qsakit.dense_oracle`, so that code deciding whether
to run the oracle at all (the ``compile`` command above the cap) does not
import numpy.  :mod:`qsakit.dense_oracle` re-exports every name.
"""

from __future__ import annotations

import os

DENSE_LIMIT_ENV = "QSA_MAX_DENSE_QUBITS"
DEFAULT_DENSE_LIMIT = 14


class ResourceLimitError(RuntimeError):
    """Raised when a dense operation exceeds the configured qubit budget."""


def max_dense_qubits() -> int:
    """Dense-register cap (env ``QSA_MAX_DENSE_QUBITS``, default 14).

    A value that is not an integer of at least 1 raises ``ValueError``
    (malformed input): a limit below 1 would allow no dense work at all.
    """
    raw = os.environ.get(DENSE_LIMIT_ENV, "")
    try:
        limit = int(raw) if raw else DEFAULT_DENSE_LIMIT
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(
            f"invalid {DENSE_LIMIT_ENV} value {raw!r}; expected an integer of at least 1"
        )
    return limit


def check_dense_limit(n_sites: int, context: str) -> None:
    limit = max_dense_qubits()
    if n_sites > limit:
        raise ResourceLimitError(
            f"{context}: {n_sites} sites exceeds the dense limit of {limit} "
            f"(set {DENSE_LIMIT_ENV} to raise it)"
        )
