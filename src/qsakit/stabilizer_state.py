"""Stabilizer states as tableaux of Pauli strings, with no 2^n arrays.

A state of ``n`` sites is stored in the form of Aaronson & Gottesman
(quant-ph/0406196): ``n`` commuting Hermitian strings ``g_k`` that fix it
(``g_k |psi> = |psi>``, signs included), and ``n`` destabilizers ``d_k``
with ``d_k`` anticommuting with ``g_k`` and commuting with every other
stabilizer and destabilizer.  Every update is a few commutation tests
and :func:`multiply` products per row, so each operation costs ``O(n)``
string operations, whatever ``2^n`` is.  The rows share one register, so an
operation checks its string's register once and its row loops test the
commutation parity alone:

* a Pauli string ``P`` applied to the state flips the sign of each
  stabilizer it anticommutes with (``P g P^dag = -g``);
* the rotation ``exp(-i pi/4 Q)`` maps each row through
  :func:`~qsakit.propagator_engine.quarter_conjugate`;
* projecting onto the +1 space of ``Q`` is the measurement rule with the
  outcome forced to +1: when a stabilizer ``g_p`` anticommutes with ``Q``,
  every other row that does is multiplied by ``g_p``, ``d_p`` becomes
  ``g_p`` and ``g_p`` becomes ``Q``.  Otherwise ``Q`` is determined: it is
  ``+-`` the product of the ``g_k`` whose ``d_k`` anticommutes with it.
  Then the projection leaves a ``+Q`` state alone, and it annihilates a
  ``-Q`` state, which raises :class:`ProjectionError`;
* an expectation is 0 when ``Q`` anticommutes with a stabilizer, else the
  determined sign, so it is exactly -1, 0 or +1;
* ``|<a|b>|^2`` is ``<b| prod_k (1 + g_k)/2 |b>`` over the stabilizers of
  ``a``: the product of the probabilities 0, 1/2 or 1 of projecting ``b``
  onto each of them in turn.

Global phases are not tracked; nothing here reads one.  The work of a
ground state grows as the square of the register, so :data:`MAX_TABLEAU_SITES`
bounds it.  A state of a code space with a few logical qubits is a
:class:`LogicalFrame` over a code-state tableau.
"""

from __future__ import annotations

import math

from .dense_limit import ResourceLimitError
from .pauli_core import PauliString, _anticommute, _check_same_register, commutes, multiply
from .propagator_engine import quarter_conjugate

#: Largest register a lattice tableau is built for, 46x46 Wen spins.
#: ``toric ground`` does work quadratic in the spin count: in a fresh process
#: on a 2-vCPU host it takes about 1.0 s on open 30x30 (900 spins) and
#: 4.6-5.3 s on open 46x46 (2,116 spins).
MAX_TABLEAU_SITES = 2116


class ProjectionError(ArithmeticError):
    """Raised when projecting onto a string's +1 space would annihilate the state."""


def check_tableau_limit(n_sites: int, context: str) -> None:
    """Refuse a register above :data:`MAX_TABLEAU_SITES` before any work."""
    if n_sites > MAX_TABLEAU_SITES:
        raise ResourceLimitError(
            f"{context}: {n_sites} sites exceeds the stabilizer tableau cap of "
            f"{MAX_TABLEAU_SITES} sites"
        )


def _check_hermitian(q: PauliString) -> None:
    if not q.is_hermitian:
        raise ValueError(f"{q} is not Hermitian: its phase is imaginary")


class StabilizerState:
    """A stabilizer state: its stabilizer and destabilizer rows, updated in place."""

    __slots__ = ("stabilizers", "destabilizers")

    def __init__(self, stabilizers: list[PauliString], destabilizers: list[PauliString]):
        self.stabilizers = stabilizers
        self.destabilizers = destabilizers

    @classmethod
    def product(cls, letters: str) -> "StabilizerState":
        """The product state fixed by ``letters[k]`` on site ``k``.

        ``Z`` is |0>, ``X`` is |+> and ``Y`` is |+i>; each site's destabilizer
        is ``X`` on a ``Z`` site and ``Z`` on the others.
        """
        n = len(letters)
        return cls(
            [PauliString.from_sites(n, {k: letter}) for k, letter in enumerate(letters)],
            [PauliString.from_sites(n, {k: "X" if letter == "Z" else "Z"})
             for k, letter in enumerate(letters)],
        )

    def copy(self) -> "StabilizerState":
        return StabilizerState(list(self.stabilizers), list(self.destabilizers))

    def apply_string(self, q: PauliString) -> None:
        """``|psi> -> q |psi>``: flip the sign of each stabilizer ``q`` anticommutes with."""
        stabilizers = self.stabilizers
        _check_same_register(stabilizers[0], q)
        for k, g in enumerate(stabilizers):
            if _anticommute(g, q):
                stabilizers[k] = g.with_phase_exp(g.phase_exp + 2)

    def rotate(self, q: PauliString) -> None:
        """``|psi> -> exp(-i pi/4 q) |psi>`` for a Hermitian ``q``."""
        _check_hermitian(q)
        _check_same_register(self.stabilizers[0], q)
        for rows in (self.stabilizers, self.destabilizers):
            rows[:] = [quarter_conjugate(row, q) if _anticommute(row, q) else row for row in rows]

    def _determined(self, q: PauliString) -> tuple[list[int], int]:
        """``(hits, value)`` of a Hermitian ``q``: the rows ``k`` whose destabilizer
        anticommutes with ``q``, and ``<q>`` when ``q`` commutes with every
        stabilizer (+1 or -1), else 0.

        The rows form a symplectic basis, so ``q`` is, up to a phase, the
        product of the ``g_k`` of the hits times destabilizers, and the
        destabilizers drop out exactly when ``q`` commutes with every
        stabilizer: then ``q`` has the letters of that product and is
        ``+-`` it.
        """
        _check_hermitian(q)
        _check_same_register(self.destabilizers[0], q)
        product = PauliString.from_sites(q.n_sites, {})
        hits = []
        for k, d in enumerate(self.destabilizers):
            if _anticommute(d, q):
                hits.append(k)
                product = multiply(product, self.stabilizers[k])
        if product.x != q.x or product.z != q.z:
            return hits, 0
        return hits, 1 if (q.phase_exp - product.phase_exp) % 4 == 0 else -1

    def expectation(self, q: PauliString) -> int:
        """``<psi|q|psi>`` for a Hermitian ``q``: exactly -1, 0 or +1."""
        return self._determined(q)[1]

    def _force_plus(self, q: PauliString) -> int:
        """0 after projecting onto ``q``'s +1 space when ``<q>`` is 0 (probability
        1/2); otherwise the determined ``<q>``, +1 or -1, with the state untouched."""
        hits, value = self._determined(q)
        if value:
            return value
        stabilizers, destabilizers = self.stabilizers, self.destabilizers
        pivot = None
        for k, g in enumerate(stabilizers):
            if _anticommute(g, q):
                if pivot is None:
                    pivot, g_p = k, g
                else:
                    stabilizers[k] = multiply(g, g_p)
        for k in hits:
            if k != pivot:
                destabilizers[k] = multiply(destabilizers[k], g_p)
        destabilizers[pivot] = g_p
        stabilizers[pivot] = q
        return 0

    def project(self, q: PauliString) -> None:
        """``|psi> -> (1 + q)|psi>``, normalized, for a Hermitian ``q``.

        Raises:
            ProjectionError: ``<q>`` is -1, so the projection is zero.
        """
        if self._force_plus(q) < 0:
            raise ProjectionError(f"projecting onto the +1 space of {q} annihilates the state")

    def overlap(self, other: "StabilizerState") -> float:
        """``|<self|other>|^2``: 0, or ``2**-k`` for the ``k`` stabilizers of
        ``self`` whose projection halves ``other``.

        Exact while ``k`` stays at most 1074, where a float reaches its
        smallest value; a larger ``k`` reads 0.0.  When both tableaux hold
        the same stabilizer letters row by row, each row of ``other`` is
        ``+-`` that of ``self``, so the overlap is 1.0 when every sign agrees
        and 0.0 otherwise, with no projection.
        """
        rows = list(zip(self.stabilizers, other.stabilizers))
        if len(self.stabilizers) == len(other.stabilizers) and all(
                g.x == h.x and g.z == h.z for g, h in rows):
            return float(all(g.phase_exp == h.phase_exp for g, h in rows))
        state = other.copy()
        halvings = 0
        for g in self.stabilizers:
            outcome = state._force_plus(g)
            if outcome < 0:
                return 0.0
            halvings += outcome == 0
        return math.ldexp(1.0, -halvings)


class LogicalFrame:
    """A code-space state of ``k`` (at most two) logical qubits, held exactly
    (Gottesman, quant-ph/9807006).

    ``base`` is a code-state tableau, ``pairs`` holds the logical pairs
    ``(X_j, Z_j)``, each ``Z_j`` fixing ``base``, and ``amplitudes[b]`` is that
    of ``X^b|base>``, the product of the ``X_j`` whose bit is set in ``b``
    (the first pair the most significant).  A Hermitian ``q`` that keeps the
    code space maps ``X^b|base>`` to ``(-1)^(g.b) w X^(b^f)|base>``: bit ``j``
    of ``f`` (of ``g``) is set when ``q`` anticommutes with ``Z_j`` (``X_j``),
    and ``X^f q = i^m h`` for a Hermitian ``h`` that fixes ``base`` up to the
    sign ``<h>``, so ``w = i^m <h>``.  The tableau is never changed.
    """

    __slots__ = ("base", "pairs", "amplitudes")

    def __init__(self, base: StabilizerState, pairs, amplitudes):
        self.pairs = list(pairs)
        k = len(self.pairs)
        if len(amplitudes) != 1 << k:
            raise ValueError(f"{k} logical pairs take {1 << k} amplitudes, not {len(amplitudes)}")
        for _, z in self.pairs:
            if base.expectation(z) != 1:
                raise ValueError(f"the logical {z} does not fix the base state")
        self.base = base
        self.amplitudes = [complex(a) for a in amplitudes]

    def evolve(self, q: PauliString, angle: float) -> None:
        """``|psi> -> exp(-i angle q)|psi>`` for a Hermitian ``q`` that keeps the code space.

        Raises:
            ValueError: ``q`` leaves the code space, or acts on a logical
                qubit the frame does not hold.
        """
        k = len(self.pairs)
        flips = signs = 0
        x_f = PauliString.from_sites(q.n_sites, {})
        for j, (x, z) in enumerate(self.pairs):
            bit = 1 << (k - 1 - j)
            if not commutes(q, z):
                flips |= bit
                x_f = multiply(x_f, x)
            if not commutes(q, x):
                signs |= bit
        p = multiply(x_f, q)
        turns = p.phase_exp % 2  # p = i^turns h with h Hermitian
        value = self.base.expectation(p.with_phase_exp(p.phase_exp - turns))
        if value == 0:
            raise ValueError(f"{q} does not keep the code space of the frame")
        c, s = math.cos(angle), -1j * math.sin(angle) * value * 1j ** turns
        old = self.amplitudes
        self.amplitudes = [
            c * old[b] + (-s if (signs & (b ^ flips)).bit_count() % 2 else s) * old[b ^ flips]
            for b in range(len(old))
        ]
