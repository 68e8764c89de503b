"""Untunable pulse primitives and exact conjugation of Pauli strings.

Two pulse families are available, both normalized involutions (their
generators square to the identity), so each propagator is an exact rotation
``exp(-i * angle * H)`` with closed-form algebra:

* attachment -- ``H = (alpha_c + beta_c * m_a) / sqrt(2)`` couples a connector
  site ``c`` to a fresh site ``a``.  At the branch angles used here the
  forward/inverse pair conjugates a string whose connector letter is ``alpha``
  (or ``beta``) into the same string with the letter toggled to ``beta`` (or
  ``alpha``) and the ``m`` letter deposited on the fresh site, with
  coefficient exactly +1.
* swapper -- ``H = (alpha + beta) / sqrt(2)`` on a single site exchanges the
  two letters (and flips the sign of the third).

``conjugate`` implements the exact three-term conjugation identity for any
angle; the scheduling layer only ever consumes the collapsed single-string
result at the branch angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pauli_core import (
    TOL,
    _BITS,
    PauliString,
    WeightedPauliSum,
    _masked,
    is_involution,
    multiply,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Default branch integers (m, m') picking forward angle -pi/2, inverse +pi/2.
DEFAULT_BRANCH_M = -1
DEFAULT_BRANCH_MP = 0


class PulseSpecError(ValueError):
    """Raised for ill-formed attachment/swapper specifications."""


class CollapseError(ValueError):
    """Raised when a conjugation result is not a single +1-coefficient string."""


def _check_letter(letter: str, what: str) -> None:
    if letter not in ("X", "Y", "Z"):
        raise PulseSpecError(f"{what} must be X, Y or Z, got {letter!r}")


@dataclass(frozen=True)
class AttachmentSpec:
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

    @property
    def forward_angle(self) -> float:
        return 1.5 * math.pi + 2.0 * math.pi * self.branch_m

    @property
    def inverse_angle(self) -> float:
        return 0.5 * math.pi + 2.0 * math.pi * self.branch_mp

    def generator(self, n_sites: int) -> WeightedPauliSum:
        """``(alpha_c + beta_c (x) m_a) / sqrt(2)`` on an n-site register."""
        lone = PauliString.from_sites(n_sites, {self.connector_site: self.alpha})
        coupled = PauliString.from_sites(
            n_sites,
            {self.connector_site: self.beta, self.attached_site: self.attached_letter},
        )
        return WeightedPauliSum.from_terms(
            n_sites, [(_INV_SQRT2, lone), (_INV_SQRT2, coupled)]
        )

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
                connector_site=int(data["connector_site"]),
                alpha=str(data["alpha"]),
                beta=str(data["beta"]),
                attached_site=int(data["attached_site"]),
                attached_letter=str(data.get("attached_letter", "X")),
                branch_m=int(data.get("branch_m", DEFAULT_BRANCH_M)),
                branch_mp=int(data.get("branch_mp", DEFAULT_BRANCH_MP)),
            )
        except KeyError as exc:
            raise PulseSpecError(f"attachment spec missing field {exc}") from exc


@dataclass(frozen=True)
class SwapperSpec:
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

    @property
    def forward_angle(self) -> float:
        return 1.5 * math.pi + 2.0 * math.pi * self.branch_m

    @property
    def inverse_angle(self) -> float:
        return 0.5 * math.pi + 2.0 * math.pi * self.branch_mp

    def generator(self, n_sites: int) -> WeightedPauliSum:
        """``(alpha + beta) / sqrt(2)`` at the spec's site."""
        a = PauliString.from_sites(n_sites, {self.site: self.alpha})
        b = PauliString.from_sites(n_sites, {self.site: self.beta})
        return WeightedPauliSum.from_terms(n_sites, [(_INV_SQRT2, a), (_INV_SQRT2, b)])

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
                site=int(data["site"]),
                alpha=str(data["alpha"]),
                beta=str(data["beta"]),
                branch_m=int(data.get("branch_m", DEFAULT_BRANCH_M)),
                branch_mp=int(data.get("branch_mp", DEFAULT_BRANCH_MP)),
            )
        except KeyError as exc:
            raise PulseSpecError(f"swapper spec missing field {exc}") from exc


@dataclass(frozen=True)
class InvolutionRotation:
    """A rotation ``exp(-i * angle * generator)`` with ``generator**2 == 1``.

    The involution property is what makes every propagator here exact:
    ``exp(-i t H) = cos(t) - i sin(t) H`` whenever ``H**2 == 1``.
    """

    generator: WeightedPauliSum
    angle: float

    def __post_init__(self) -> None:
        if not is_involution(self.generator):
            raise PulseSpecError(
                f"generator does not square to the identity: {self.generator}"
            )

    @property
    def n_sites(self) -> int:
        return self.generator.n_sites


def _branch_rotation(
    spec: AttachmentSpec | SwapperSpec, n_sites: int, direction: str
) -> InvolutionRotation:
    """The spec's rotation at its forward or inverse branch angle."""
    if direction == "forward":
        angle = spec.forward_angle
    elif direction == "inverse":
        angle = spec.inverse_angle
    else:
        raise PulseSpecError(f"invalid direction {direction!r}")
    return InvolutionRotation(spec.generator(n_sites), angle)


def make_attachment(
    spec: AttachmentSpec, n_sites: int, direction: str = "forward"
) -> InvolutionRotation:
    """Build the attachment rotation at the spec's branch angle."""
    return _branch_rotation(spec, n_sites, direction)


def make_swapper(
    spec: SwapperSpec, n_sites: int, direction: str = "forward"
) -> InvolutionRotation:
    """Build the swapper rotation at the spec's branch angle."""
    return _branch_rotation(spec, n_sites, direction)


def conjugate(q: PauliString, rotation: InvolutionRotation) -> WeightedPauliSum:
    """Exact conjugation ``U q U^dag`` with ``U = exp(-i * angle * H)``.

    Uses the involution identity

        ``U q U^dag = cos^2(t) q + sin^2(t) H q H - i sin(t) cos(t) [H, q]``

    and collects the result.  ``q`` must carry a real phase (+1 or -1);
    imaginary-phased strings cannot appear in a real-coefficient sum.
    """
    if q.n_sites != rotation.n_sites:
        raise ValueError(
            f"register mismatch: string on {q.n_sites}, rotation on "
            f"{rotation.n_sites} sites"
        )
    if not q.is_hermitian:
        raise ValueError(f"cannot conjugate non-Hermitian-phase string {q}")
    h = rotation.generator
    t = rotation.angle
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


def collapse(total: WeightedPauliSum) -> PauliString:
    """Extract the single string of a sum whose lone coefficient is +1.

    Raises:
        CollapseError: If the sum has more than one term or the coefficient
            deviates from +1 by more than the collection tolerance.
    """
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


def conjugate_string(q: PauliString, rotation: InvolutionRotation) -> PauliString:
    """Conjugate and collapse in one step (the scheduling fast path)."""
    return collapse(conjugate(q, rotation))


def apply_swap(string: PauliString, spec: SwapperSpec) -> PauliString:
    """Symbolic action of a swapper sandwich on one string.

    The letter at the spec's site maps ``alpha <-> beta``; the third
    non-identity letter keeps its name but flips the string's sign; the
    identity is untouched.
    """
    if spec.site >= string.n_sites:
        raise ValueError(
            f"swapper site {spec.site} out of range for {string.n_sites} sites"
        )
    letter = string.letter(spec.site)
    phase_exp = string.phase_exp
    if letter == spec.alpha:
        letter = spec.beta
    elif letter == spec.beta:
        letter = spec.alpha
    elif letter != "I":
        phase_exp += 2
    x_bit, z_bit = _BITS[letter]
    keep = ~(1 << spec.site)
    return _masked(
        string.n_sites,
        string.x & keep | x_bit << spec.site,
        string.z & keep | z_bit << spec.site,
        phase_exp,
    )
