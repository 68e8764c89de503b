"""Untunable pulse primitives and their exact action on Pauli strings.

Both pulse families have a generator ``H = (A + B) / sqrt(2)`` made of two
anticommuting Pauli strings, so ``H**2 = 1`` and every propagator is exactly
``exp(-i t H) = cos(t) - i sin(t) H``:

* attachment -- ``A = alpha_c`` and ``B = beta_c * m_a`` couple a connector
  site ``c`` to a fresh site ``a``;
* swapper -- ``A = alpha`` and ``B = beta`` on one site.

Every pulse sits at a branch angle, ``3*pi/2 + 2*pi*m`` (forward) or
``pi/2 + 2*pi*m'`` (inverse), where the propagator is ``+iH`` or ``-iH``, a
Clifford, and conjugation is ``U q U^dag = H q H``.  For a Pauli string
``q`` with commutation signs ``A q = s_A q A`` and ``B q = s_B q B``,
``{A, B} = 0`` gives

    ``H q H = (s_A + s_B)/2 * q + (s_A - s_B)/2 * q A B``.

So a string that commutes with both or with neither maps to ``s_A q``, and
one that commutes with exactly one maps to ``s_A q A B``: the sign is ``+``
exactly when ``q`` commutes with ``A``.  :func:`branch_conjugate` applies
this rule (the Heisenberg-picture Clifford update of Gottesman,
quant-ph/9807006, and Aaronson & Gottesman, quant-ph/0406196) with two
commutation tests, at most two products and Z4 phases: no floats, and the
same result for every branch integer.  On a string whose connector letter
is ``alpha`` (or ``beta``) and whose attached site is fresh, an attachment
toggles the connector letter to ``beta`` (or ``alpha``) and deposits the
``m`` letter, with sign ``+1``; a connector carrying the third letter gives
sign ``-1``.  A swapper exchanges ``alpha`` and ``beta`` at its site and
flips the sign of a string carrying the third letter there.

:func:`quarter_conjugate` is the same kind of rule for the single-string
rotation ``exp(-i pi/4 q)``, which the stabilizer tableau of
:mod:`qsakit.stabilizer_state` runs: ``g`` when ``g`` commutes with ``q``,
else ``i g q``.

:func:`conjugate` is the float three-term conjugation identity for a pulse
``(generator, angle)`` at any angle; the tests use it as the reference for
the rule.  :func:`make_attachment` and :func:`make_swapper` give a spec's
forward pulse ``(spec.generator(n), spec.forward_angle)``; its inverse pulse
is ``(spec.generator(n), spec.inverse_angle)``, and a schedule's pulse program
(``QsaSchedule.pulses``, which the dense oracle runs) is made of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pauli_core import (
    TOL,
    PauliString,
    WeightedPauliSum,
    commutes,
    index_field,
    is_involution,
    multiply,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Default branch integers (m, m') picking forward angle -pi/2, inverse +pi/2.
DEFAULT_BRANCH_M = -1
DEFAULT_BRANCH_MP = 0

#: Largest accepted ``|branch_m|`` and ``|branch_mp|``.  The symbolic rule is
#: exact for every branch integer, but the dense oracle runs the float angle
#: ``3*pi/2 + 2*pi*m``, whose rounding grows with ``|m|``: from about 700 on,
#: the float angle is no longer a branch angle to within the collection
#: tolerance, and near 10**5 the dense verdict fails.  Within the bound every
#: accepted angle lies within 6e-13 rad of its branch angle.
MAX_BRANCH = 512


class PulseSpecError(ValueError):
    """Raised for ill-formed attachment/swapper specifications."""


class CollapseError(ValueError):
    """Raised when a conjugation result is not a single +1-coefficient string."""


def _check_letter(letter: str, what: str) -> None:
    if letter not in ("X", "Y", "Z"):
        raise PulseSpecError(f"{what} must be X, Y or Z, got {letter!r}")


class _BranchPulse:
    """Angles, branch bounds and generator shared by both pulse families."""

    def _check_branches(self) -> None:
        for name in ("branch_m", "branch_mp"):
            value = getattr(self, name)
            if abs(value) > MAX_BRANCH:
                raise PulseSpecError(
                    f"{name} must lie in [-{MAX_BRANCH}, {MAX_BRANCH}], got {value}"
                )

    @property
    def forward_angle(self) -> float:
        return 1.5 * math.pi + 2.0 * math.pi * self.branch_m

    @property
    def inverse_angle(self) -> float:
        return 0.5 * math.pi + 2.0 * math.pi * self.branch_mp

    def generator(self, n_sites: int) -> WeightedPauliSum:
        """``(A + B) / sqrt(2)`` on an n-site register."""
        a, b = self.pair(n_sites)
        return WeightedPauliSum.from_terms(n_sites, [(_INV_SQRT2, a), (_INV_SQRT2, b)])


@dataclass(frozen=True)
class AttachmentSpec(_BranchPulse):
    """A two-body attachment pulse description.

    Attributes:
        connector_site: Site already carrying the string letter to be toggled.
        alpha: Letter of the lone connector term.
        beta: Letter of the coupled connector term (must differ from alpha).
        attached_site: Fresh site the pulse writes onto.
        attached_letter: Letter deposited on the fresh site (the ``m`` letter).
        branch_m: Branch integer of the forward angle ``3*pi/2 + 2*pi*m``.
        branch_mp: Branch integer of the inverse angle ``pi/2 + 2*pi*m'``.
    """

    connector_site: int
    alpha: str
    beta: str
    attached_site: int
    attached_letter: str = "X"
    branch_m: int = DEFAULT_BRANCH_M
    branch_mp: int = DEFAULT_BRANCH_MP

    def __post_init__(self) -> None:
        _check_letter(self.alpha, "alpha")
        _check_letter(self.beta, "beta")
        _check_letter(self.attached_letter, "attached_letter")
        if self.alpha == self.beta:
            raise PulseSpecError("alpha and beta must differ")
        if self.connector_site == self.attached_site:
            raise PulseSpecError("connector and attached site must differ")
        if self.connector_site < 0 or self.attached_site < 0:
            raise PulseSpecError("sites must be non-negative")
        self._check_branches()

    def pair(self, n_sites: int) -> tuple[PauliString, PauliString]:
        """The generator's strings ``(alpha_c, beta_c * m_a)``."""
        lone = PauliString.from_sites(n_sites, {self.connector_site: self.alpha})
        coupled = PauliString.from_sites(
            n_sites,
            {self.connector_site: self.beta, self.attached_site: self.attached_letter},
        )
        return lone, coupled

    def to_dict(self) -> dict:
        return {
            "connector_site": self.connector_site,
            "alpha": self.alpha,
            "beta": self.beta,
            "attached_site": self.attached_site,
            "attached_letter": self.attached_letter,
            "branch_m": self.branch_m,
            "branch_mp": self.branch_mp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttachmentSpec":
        try:
            return cls(
                connector_site=index_field(data["connector_site"], "connector_site"),
                alpha=data["alpha"],
                beta=data["beta"],
                attached_site=index_field(data["attached_site"], "attached_site"),
                attached_letter=data.get("attached_letter", "X"),
                branch_m=index_field(data.get("branch_m", DEFAULT_BRANCH_M), "branch_m"),
                branch_mp=index_field(data.get("branch_mp", DEFAULT_BRANCH_MP), "branch_mp"),
            )
        except KeyError as exc:
            raise PulseSpecError(f"attachment spec missing field {exc}") from exc


@dataclass(frozen=True)
class SwapperSpec(_BranchPulse):
    """A single-body swapper pulse exchanging two letters at one site."""

    site: int
    alpha: str
    beta: str
    branch_m: int = DEFAULT_BRANCH_M
    branch_mp: int = DEFAULT_BRANCH_MP

    def __post_init__(self) -> None:
        _check_letter(self.alpha, "alpha")
        _check_letter(self.beta, "beta")
        if self.alpha == self.beta:
            raise PulseSpecError("alpha and beta must differ")
        if self.site < 0:
            raise PulseSpecError("site must be non-negative")
        self._check_branches()

    def pair(self, n_sites: int) -> tuple[PauliString, PauliString]:
        """The generator's strings ``(alpha, beta)`` at the spec's site."""
        return (
            PauliString.from_sites(n_sites, {self.site: self.alpha}),
            PauliString.from_sites(n_sites, {self.site: self.beta}),
        )

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "alpha": self.alpha,
            "beta": self.beta,
            "branch_m": self.branch_m,
            "branch_mp": self.branch_mp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SwapperSpec":
        try:
            return cls(
                site=index_field(data["site"], "site"),
                alpha=data["alpha"],
                beta=data["beta"],
                branch_m=index_field(data.get("branch_m", DEFAULT_BRANCH_M), "branch_m"),
                branch_mp=index_field(data.get("branch_mp", DEFAULT_BRANCH_MP), "branch_mp"),
            )
        except KeyError as exc:
            raise PulseSpecError(f"swapper spec missing field {exc}") from exc


def make_attachment(spec: AttachmentSpec, n_sites: int) -> tuple[WeightedPauliSum, float]:
    """The attachment's forward pulse ``(generator, angle)``."""
    return spec.generator(n_sites), spec.forward_angle


def make_swapper(spec: SwapperSpec, n_sites: int) -> tuple[WeightedPauliSum, float]:
    """The swapper's forward pulse ``(generator, angle)``."""
    return spec.generator(n_sites), spec.forward_angle


def _check_conjugand(q: PauliString, n_sites: int) -> None:
    if q.n_sites != n_sites:
        raise ValueError(
            f"register mismatch: string on {q.n_sites}, rotation on "
            f"{n_sites} sites"
        )
    if not q.is_hermitian:
        raise ValueError(f"cannot conjugate non-Hermitian-phase string {q}")


def conjugate(q: PauliString, pulse: tuple[WeightedPauliSum, float]) -> WeightedPauliSum:
    """Exact conjugation ``U q U^dag`` for the pulse ``(H, t)``, ``U = exp(-i t H)``.

    Uses the involution identity

        ``U q U^dag = cos^2(t) q + sin^2(t) H q H - i sin(t) cos(t) [H, q]``

    and collects the result.  ``q`` must carry a real phase (+1 or -1);
    imaginary-phased strings cannot appear in a real-coefficient sum.

    Raises:
        PulseSpecError: ``H`` does not square to the identity.
    """
    h, t = pulse
    if not is_involution(h):
        raise PulseSpecError(
            f"generator does not square to the identity: {h}"
        )
    _check_conjugand(q, h.n_sites)
    cos_t, sin_t = math.cos(t), math.sin(t)
    terms: list[tuple[complex, PauliString]] = [(cos_t * cos_t, q)]
    for ca, sa in h.terms:
        for cb, sb in h.terms:
            terms.append((sin_t * sin_t * ca * cb, multiply(multiply(sa, q), sb)))
    for ch, sh in h.terms:
        hq = multiply(sh, q)
        qh = multiply(q, sh)
        terms.append((-1j * sin_t * cos_t * ch, hq))
        terms.append((1j * sin_t * cos_t * ch, qh))
    return WeightedPauliSum.from_terms(q.n_sites, terms)


def conjugate_string(q: PauliString, pulse: tuple[WeightedPauliSum, float]) -> PauliString:
    """:func:`conjugate`, collapsed to the lone string of a +1 coefficient.

    Raises:
        CollapseError: If the result has more than one term or its coefficient
            deviates from +1 by more than the collection tolerance.
    """
    total = conjugate(q, pulse)
    if len(total.terms) != 1:
        raise CollapseError(
            f"conjugation did not collapse to one string: {total}"
        )
    coeff, string = total.terms[0]
    if abs(coeff - 1.0) > 10 * TOL:
        raise CollapseError(
            f"collapsed coefficient {coeff!r} differs from +1: {total}"
        )
    return string


def branch_conjugate(q: PauliString, a: PauliString, b: PauliString) -> PauliString:
    """``U q U^dag`` for ``H = (a + b) / sqrt(2)`` at a branch angle, exactly.

    ``q`` commuting with both of ``a`` and ``b``, or with neither, gives
    ``+-q``; otherwise the result is ``+-q * a * b``.  The sign is ``+``
    exactly when ``q`` commutes with ``a``, and the product carries its own
    Z4 phase (see the module docstring).

    Raises:
        ValueError: ``q`` on another register than ``a``, or with an
            imaginary phase (the texts of :func:`conjugate`).
        PulseSpecError: ``a`` and ``b`` do not make an involution: one of
            them has an imaginary phase, or they commute.
    """
    _check_conjugand(q, a.n_sites)
    if not (a.is_hermitian and b.is_hermitian) or commutes(a, b):
        raise PulseSpecError(f"{a} and {b} are not an anticommuting Hermitian pair")
    with_a = commutes(q, a)
    if with_a == commutes(q, b):
        result = q
    else:
        result = multiply(multiply(q, a), b)
    return result if with_a else result.with_phase_exp(result.phase_exp + 2)


def quarter_conjugate(g: PauliString, q: PauliString) -> PauliString:
    """``U g U^dag`` for the Clifford ``U = exp(-i pi/4 q)``, exactly.

    ``g`` commuting with ``q`` is left alone; otherwise ``U g U^dag =
    exp(-i pi/2 q) g = -i q g = i g q``, which is Hermitian again for
    Hermitian ``g`` and ``q``.  The product ``g q`` is formed first: each
    site where both letters are non-identity and differ adds ``+-i`` to its
    phase, so its phase less those of ``g`` and ``q`` is odd exactly when
    the two anticommute, and a row the tableau has already found
    anticommuting is not tested again.
    """
    product = multiply(g, q)
    if (product.phase_exp - g.phase_exp - q.phase_exp) % 2 == 0:
        return g
    return product.with_phase_exp(product.phase_exp + 1)


def apply_swap(string: PauliString, spec: SwapperSpec) -> PauliString:
    """Symbolic action of a swapper sandwich on one string.

    The letter at the spec's site maps ``alpha <-> beta``; the third
    non-identity letter keeps its name but flips the string's sign; the
    identity is untouched (:func:`branch_conjugate` with ``a = alpha`` and
    ``b = beta``).
    """
    if spec.site >= string.n_sites:
        raise ValueError(
            f"swapper site {spec.site} out of range for {string.n_sites} sites"
        )
    return branch_conjugate(string, *spec.pair(string.n_sites))
