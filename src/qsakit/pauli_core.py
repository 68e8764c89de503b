"""Exact Pauli-string algebra on a fixed register of sites.

Everything downstream (pulse conjugation, schedule replay, lattice builders)
runs on two types defined here:

* :class:`PauliString` -- a tensor product of single-site Pauli letters with a
  global phase restricted to ``{+1, +i, -1, -i}``, stored as an integer
  exponent of ``i``.
* :class:`WeightedPauliSum` -- a real-linear combination of phase-free
  strings in collected form (no duplicate letter sequences, no negligible
  coefficients).

All operations are exact on the integer/letter data; the only tolerance in
this module is ``TOL`` (1e-12), used when real coefficients are collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

LETTERS = ("I", "X", "Y", "Z")

#: Absolute tolerance for collecting real coefficients.
TOL = 1e-12

# Single-site products: (a, b) -> (letter of a*b, power of i contributed).
# E.g. X*Y = iZ, Z*Y = -iX.
_PRODUCT: dict[tuple[str, str], tuple[str, int]] = {}
for _l in LETTERS:
    _PRODUCT[("I", _l)] = (_l, 0)
    _PRODUCT[(_l, "I")] = (_l, 0)
    _PRODUCT[(_l, _l)] = ("I", 0)
_PRODUCT[("X", "Y")] = ("Z", 1)
_PRODUCT[("Y", "X")] = ("Z", 3)
_PRODUCT[("Y", "Z")] = ("X", 1)
_PRODUCT[("Z", "Y")] = ("X", 3)
_PRODUCT[("Z", "X")] = ("Y", 1)
_PRODUCT[("X", "Z")] = ("Y", 3)

_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PHASE_VALUE = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


class PauliFormatError(ValueError):
    """Raised when a Pauli literal cannot be parsed."""


@dataclass(frozen=True)
class PauliString:
    """An n-site Pauli operator ``i**phase_exp * L_0 (x) L_1 (x) ... L_{n-1}``.

    Attributes:
        n_sites: Register width; every operation checks widths match.
        letters: Tuple of per-site letters drawn from ``I, X, Y, Z``.
        phase_exp: Global phase as an exponent of ``i``, reduced mod 4.
    """

    n_sites: int
    letters: tuple[str, ...]
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        if len(self.letters) != self.n_sites:
            raise ValueError(
                f"expected {self.n_sites} letters, got {len(self.letters)}"
            )
        bad = [l for l in self.letters if l not in LETTERS]
        if bad:
            raise ValueError(f"invalid Pauli letters: {bad}")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, ("I",) * n_sites)

    @classmethod
    def from_sites(
        cls,
        n_sites: int,
        site_letters: Mapping[int, str],
        phase_exp: int = 0,
    ) -> "PauliString":
        """Build a string that is identity except at the given sites.

        Args:
            n_sites: Register width.
            site_letters: Map from site index to letter, e.g. ``{0: "X", 3: "Z"}``.
            phase_exp: Global phase exponent of ``i``.
        """
        letters = ["I"] * n_sites
        for site, letter in site_letters.items():
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} out of range for {n_sites} sites")
            letters[site] = letter
        return cls(n_sites, tuple(letters), phase_exp)

    @classmethod
    def parse(cls, text: str, n_sites: int | None = None) -> "PauliString":
        """Parse a literal like ``XZZX``, ``+XZZX``, ``-iXIZY``.

        The optional prefix is ``+`` or ``-`` followed by an optional ``i``;
        the body is one uppercase letter per site.  Whitespace is rejected.

        Args:
            text: The literal.
            n_sites: If given, the parsed width must match.

        Raises:
            PauliFormatError: On any malformed literal.
        """
        if not isinstance(text, str) or not text:
            raise PauliFormatError(f"empty or non-string Pauli literal: {text!r}")
        if text != text.strip() or any(c.isspace() for c in text):
            raise PauliFormatError(f"whitespace in Pauli literal: {text!r}")
        body = text
        phase_exp = 0
        sign = 1
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if body[:1] == "i":
            phase_exp = 1
            body = body[1:]
        if sign < 0:
            phase_exp += 2
        if not body:
            raise PauliFormatError(f"no letters in Pauli literal: {text!r}")
        bad = [c for c in body if c not in LETTERS]
        if bad:
            raise PauliFormatError(
                f"invalid letters {bad} in Pauli literal {text!r} "
                f"(expected I, X, Y, Z)"
            )
        if n_sites is not None and len(body) != n_sites:
            raise PauliFormatError(
                f"literal {text!r} has {len(body)} sites, expected {n_sites}"
            )
        return cls(len(body), tuple(body), phase_exp)

    # -- views -------------------------------------------------------------

    def format(self) -> str:
        """Render the canonical literal (inverse of :meth:`parse`)."""
        return _PHASE_PREFIX[self.phase_exp] + "".join(self.letters)

    def __str__(self) -> str:
        return self.format()

    @property
    def phase(self) -> complex:
        """The global phase as a complex number."""
        return _PHASE_VALUE[self.phase_exp]

    @property
    def support(self) -> tuple[int, ...]:
        """Sites carrying a non-identity letter, ascending."""
        return tuple(i for i, l in enumerate(self.letters) if l != "I")

    @property
    def weight(self) -> int:
        return len(self.support)

    def letter(self, site: int) -> str:
        return self.letters[site]

    def is_identity(self) -> bool:
        return all(l == "I" for l in self.letters)

    @property
    def is_hermitian(self) -> bool:
        """True when the phase is real (+1 or -1)."""
        return self.phase_exp % 2 == 0

    # -- algebra -----------------------------------------------------------

    def with_phase_exp(self, phase_exp: int) -> "PauliString":
        return PauliString(self.n_sites, self.letters, phase_exp)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def adjoint(self) -> "PauliString":
        """Hermitian adjoint (letters are self-adjoint; phase conjugates)."""
        return self.with_phase_exp(-self.phase_exp)


def _check_same_register(a: PauliString | "WeightedPauliSum",
                         b: PauliString | "WeightedPauliSum") -> None:
    if a.n_sites != b.n_sites:
        raise ValueError(
            f"register mismatch: {a.n_sites} vs {b.n_sites} sites"
        )


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a * b`` with the accumulated phase.

    Example:
        >>> x = PauliString.parse("X")
        >>> y = PauliString.parse("Y")
        >>> str(multiply(x, y))
        'iZ'
    """
    _check_same_register(a, b)
    phase_exp = a.phase_exp + b.phase_exp
    letters = []
    for la, lb in zip(a.letters, b.letters):
        letter, extra = _PRODUCT[(la, lb)]
        letters.append(letter)
        phase_exp += extra
    return PauliString(a.n_sites, tuple(letters), phase_exp)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ``a`` and ``b`` commute.

    Two strings commute exactly when the number of sites where both letters
    are non-identity and different is even.
    """
    _check_same_register(a, b)
    clashes = sum(
        1
        for la, lb in zip(a.letters, b.letters)
        if la != "I" and lb != "I" and la != lb
    )
    return clashes % 2 == 0


def anticommuting_pairs(strings: Sequence[PauliString]) -> list[tuple[int, int]]:
    """Sorted index pairs ``(a, b)``, ``a < b``, of strings that anticommute.

    The same test as :func:`commutes` on every pair, but clashes are counted
    only on sites the two strings share: strings are indexed by site, so a
    pair with disjoint supports (which commutes exactly) is never visited.
    The cost is ``O(T * k**2)`` for ``T`` strings with at most ``k`` strings
    per site, instead of ``O(T**2 * n)``.
    """
    by_site: dict[int, list[int]] = {}
    for k, string in enumerate(strings):
        _check_same_register(strings[0], string)
        for site in string.support:
            by_site.setdefault(site, []).append(k)
    parity: dict[tuple[int, int], int] = {}
    for site, members in by_site.items():
        for x, a in enumerate(members):
            la = strings[a].letters[site]
            for b in members[x + 1 :]:
                if strings[b].letters[site] != la:
                    parity[(a, b)] = parity.get((a, b), 0) ^ 1
    return sorted(pair for pair, odd in parity.items() if odd)


@dataclass(frozen=True)
class WeightedPauliSum:
    """A real-linear combination of phase-free Pauli strings, collected.

    Invariants (enforced by :meth:`from_terms`):

    * every stored string has ``phase_exp == 0`` (phases are folded into the
      coefficients, which must come out real);
    * no two terms share a letter sequence;
    * no coefficient with ``abs(c) <= TOL`` is kept;
    * terms are sorted by letter sequence, so equal sums compare equal.
    """

    n_sites: int
    terms: tuple[tuple[float, PauliString], ...] = field(default_factory=tuple)

    @classmethod
    def from_terms(
        cls,
        n_sites: int,
        terms: Iterable[tuple[complex, PauliString]],
    ) -> "WeightedPauliSum":
        """Collect ``(coefficient, string)`` pairs into canonical form.

        String phases are folded into the coefficients.  After collection
        every coefficient must be real to within ``TOL``; a residual
        imaginary part means the caller built a non-Hermitian combination,
        which is a bug upstream.
        """
        acc: dict[tuple[str, ...], complex] = {}
        for coeff, string in terms:
            if string.n_sites != n_sites:
                raise ValueError(
                    f"term on {string.n_sites} sites in a {n_sites}-site sum"
                )
            acc[string.letters] = acc.get(string.letters, 0j) + coeff * string.phase
        collected = []
        for letters in sorted(acc):
            value = acc[letters]
            if abs(value) <= TOL:
                continue
            if abs(value.imag) > TOL:
                raise ValueError(
                    f"non-real coefficient {value} for term {''.join(letters)}"
                )
            collected.append((value.real, PauliString(n_sites, letters)))
        return cls(n_sites, tuple(collected))

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "WeightedPauliSum":
        return cls.from_terms(string.n_sites, [(coeff, string)])

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")

    def is_zero(self) -> bool:
        return not self.terms

    def is_identity(self) -> bool:
        """True when the sum equals the identity operator exactly (within TOL)."""
        return (
            len(self.terms) == 1
            and self.terms[0][1].is_identity()
            and abs(self.terms[0][0] - 1.0) <= TOL
        )

    @property
    def support(self) -> tuple[int, ...]:
        sites: set[int] = set()
        for _, string in self.terms:
            sites.update(string.support)
        return tuple(sorted(sites))

    def scaled(self, factor: float) -> "WeightedPauliSum":
        return WeightedPauliSum.from_terms(
            self.n_sites, [(factor * c, s) for c, s in self.terms]
        )

    def __add__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        _check_same_register(self, other)
        return WeightedPauliSum.from_terms(
            self.n_sites, list(self.terms) + list(other.terms)
        )

    def __sub__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        """Operator product, expanded term-by-term and recollected.

        The expansion may produce imaginary coefficients term-by-term; they
        must cancel in the collected result (they do for products of
        Hermitian sums that end up Hermitian, e.g. squares).  A residue is
        reported by :meth:`from_terms`.
        """
        _check_same_register(self, other)
        products: list[tuple[complex, PauliString]] = []
        for ca, sa in self.terms:
            for cb, sb in other.terms:
                products.append((ca * cb, multiply(sa, sb)))
        return WeightedPauliSum.from_terms(self.n_sites, products)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:+.6g}*{''.join(s.letters)}" for c, s in self.terms)


def sum_commutes(a: WeightedPauliSum, b: WeightedPauliSum) -> bool:
    """True iff the commutator ``a*b - b*a`` collects to zero.

    Individual string pairs may fail to commute while the sums still do;
    the check is on the collected commutator, with complex accumulation
    (the commutator of Hermitian sums is anti-Hermitian, so coefficients
    are imaginary before cancellation).
    """
    _check_same_register(a, b)
    acc: dict[tuple[str, ...], complex] = {}
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            ab = multiply(sa, sb)
            ba = multiply(sb, sa)
            acc[ab.letters] = acc.get(ab.letters, 0j) + ca * cb * ab.phase
            acc[ba.letters] = acc.get(ba.letters, 0j) - ca * cb * ba.phase
    return all(abs(v) <= TOL for v in acc.values())


def square(h: WeightedPauliSum) -> WeightedPauliSum:
    """The operator square ``h*h`` in collected form."""
    return h * h


def is_involution(h: WeightedPauliSum) -> bool:
    """True when ``h*h`` is exactly the identity (within TOL)."""
    return square(h).is_identity()
