"""Exact Pauli-string algebra on a fixed register of sites.

Everything downstream (pulse conjugation, schedule replay, lattice builders)
runs on two types defined here:

* :class:`PauliString` -- a tensor product of single-site Pauli letters with a
  global phase restricted to ``{+1, +i, -1, -i}``, stored as an integer
  exponent of ``i``.
* :class:`WeightedPauliSum` -- a real-linear combination of phase-free
  strings in collected form (no duplicate letter sequences, no negligible
  coefficients).

A string is stored in the symplectic form of Aaronson & Gottesman
(quant-ph/0406196): two Python ints ``x`` and ``z`` with site ``i`` at bit
``i`` of each, and the letter at a site read from its bit pair
``(x, z)``: ``I = (0, 0)``, ``X = (1, 0)``, ``Y = (1, 1)``, ``Z = (0, 1)``.
With ``Y = i X Z`` the string is
``i**(phase_exp + |x & z|) * X**x Z**z``, where ``|m|`` counts set bits, so
moving ``Z**za`` past ``X**xb`` gives the product rule

    ``a * b = i**p * P(xa ^ xb, za ^ zb)`` with
    ``p = pa + pb + 2|za & xb| + |xa & za| + |xb & zb| - |x & z|  (mod 4)``

(``x``, ``z`` the product's masks), and two strings commute exactly when
``|xa & zb| + |za & xb|`` is even.  Every product and commutation test is a
few big-int operations, whatever the register width; the per-site
``letters`` are computed when read, and ``support`` on first use, then kept.

All operations are exact on the integer data; the only tolerance in this
module is ``TOL`` (1e-12), used when real coefficients are collected.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from operator import index
from typing import Iterable, Mapping, Sequence

LETTERS = ("I", "X", "Y", "Z")

#: Absolute tolerance for collecting real coefficients.
TOL = 1e-12

# letter -> (x bit, z bit); the tables below are derived from it
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {bits: letter for letter, bits in _BITS.items()}
# the same, keyed by binary digits, and letters to digits for int(..., 2)
_LETTER_OF_DIGITS = {(str(x), str(z)): letter for (x, z), letter in _LETTER_OF.items()}
_X_DIGITS = str.maketrans({letter: str(x) for letter, (x, _) in _BITS.items()})
_Z_DIGITS = str.maketrans({letter: str(z) for letter, (_, z) in _BITS.items()})

_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PHASE_VALUE = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


class PauliFormatError(ValueError):
    """Raised when a Pauli literal cannot be parsed."""


def index_field(value, field: str) -> int:
    """``operator.index(value)`` for an integer field read from input, naming ``field``.

    A float, a numeric string or a bool (JSON ``true`` is not 1) raises
    ``TypeError`` instead of being truncated or converted.
    """
    if isinstance(value, bool):
        raise TypeError(f"{field}: 'bool' object cannot be interpreted as an integer")
    try:
        return index(value)
    except TypeError as exc:
        raise TypeError(f"{field}: {exc}") from None


def pair_entries(value, field: str) -> list:
    """``value`` if it is a two-entry list read from input, else ``ValueError`` naming ``field``."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{field} must hold two entries, got {value!r}")
    return value


def pair_field(value, field: str) -> tuple[int, int]:
    """A ``[row, col]`` pair read from input: :func:`pair_entries`, each through
    :func:`index_field`."""
    a, b = pair_entries(value, field)
    return index_field(a, field), index_field(b, field)


def float_field(value, field: str) -> float:
    """``float(value)`` for a real field read from input, naming ``field`` on a refusal.

    Only a finite JSON number is a real: a bool or a string, numeric or not,
    raises ``TypeError`` instead of being converted, and NaN, an infinity or
    an integer too large for a float raises ``ValueError``.
    """
    if isinstance(value, (bool, str)):
        raise TypeError(f"{field}: expected a JSON number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{field}: {exc}") from None
    except OverflowError as exc:
        raise ValueError(f"{field}: {exc}") from None
    if not math.isfinite(number):
        raise ValueError(f"{field}: must be a finite number, got {value!r}")
    return number


def _sites(mask: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of ``mask``."""
    bits = format(mask, "b")[::-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def _masks(text: str) -> tuple[int, int]:
    """``(x, z)`` of a string of valid letters, site 0 first."""
    text = text[::-1]
    return int(text.translate(_X_DIGITS), 2), int(text.translate(_Z_DIGITS), 2)


def _check_width(n_sites: int) -> None:
    if n_sites < 1:
        raise ValueError(f"n_sites must be positive, got {n_sites}")


class PauliString:
    """An n-site Pauli operator ``i**phase_exp * L_0 (x) L_1 (x) ... L_{n-1}``.

    ``PauliString(n_sites, letters, phase_exp=0)`` takes one letter per site
    (any sequence of ``I, X, Y, Z``).  Instances are immutable, and equal
    when width, masks and phase agree.

    Attributes:
        n_sites: Register width; every operation checks widths match.
        x: Bit ``i`` set when site ``i`` carries X or Y.
        z: Bit ``i`` set when site ``i`` carries Z or Y.
        phase_exp: Global phase as an exponent of ``i``, reduced mod 4.
    """

    __slots__ = ("n_sites", "x", "z", "phase_exp", "_support")

    n_sites: int
    x: int
    z: int
    phase_exp: int

    def __new__(cls, n_sites: int, letters: Sequence[str], phase_exp: int = 0):
        _check_width(n_sites)
        if len(letters) != n_sites:
            raise ValueError(f"expected {n_sites} letters, got {len(letters)}")
        bad = [l for l in letters if l not in LETTERS]
        if bad:
            raise ValueError(f"invalid Pauli letters: {bad}")
        return _masked(n_sites, *_masks("".join(letters)), phase_exp)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PauliString:
            return NotImplemented
        return (
            self.x == other.x
            and self.z == other.z
            and self.n_sites == other.n_sites
            and self.phase_exp == other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n_sites, self.x, self.z, self.phase_exp))

    def __reduce__(self):
        return _masked, (self.n_sites, self.x, self.z, self.phase_exp)

    def __repr__(self) -> str:
        return (
            f"PauliString(n_sites={self.n_sites!r}, letters={self.letters!r}, "
            f"phase_exp={self.phase_exp!r})"
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sites(cls, n_sites: int, site_letters: Mapping[int, str]) -> "PauliString":
        """Build a phase-free string that is identity except at the given sites.

        Args:
            n_sites: Register width.
            site_letters: Map from site index to letter, e.g. ``{0: "X", 3: "Z"}``.
        """
        x = z = 0
        bad = {}
        for site, letter in site_letters.items():
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} out of range for {n_sites} sites")
            if letter not in LETTERS:
                bad[site] = letter
                continue
            x_bit, z_bit = _BITS[letter]
            shift = index(site)
            x |= x_bit << shift
            z |= z_bit << shift
        _check_width(n_sites)
        if bad:
            raise ValueError(f"invalid Pauli letters: {[bad[s] for s in sorted(bad)]}")
        return _masked(n_sites, x, z, 0)

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
        return _masked(len(body), *_masks(body), phase_exp)

    # -- views -------------------------------------------------------------

    def _text(self) -> str:
        """The letters as one string, site 0 first."""
        width = f"0{self.n_sites}b"
        xs, zs = format(self.x, width)[::-1], format(self.z, width)[::-1]
        return "".join(map(_LETTER_OF_DIGITS.__getitem__, zip(xs, zs)))

    def format(self) -> str:
        """Render the canonical literal (inverse of :meth:`parse`)."""
        return _PHASE_PREFIX[self.phase_exp] + self._text()

    def __str__(self) -> str:
        return self.format()

    @property
    def letters(self) -> tuple[str, ...]:
        """Tuple of per-site letters drawn from ``I, X, Y, Z``."""
        return tuple(self._text())

    @property
    def phase(self) -> complex:
        """The global phase as a complex number."""
        return _PHASE_VALUE[self.phase_exp]

    @property
    def support(self) -> tuple[int, ...]:
        """Sites carrying a non-identity letter, ascending."""
        try:
            return self._support
        except AttributeError:
            _set_support(self, _sites(self.x | self.z))
            return self._support

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def letter(self, site: int) -> str:
        site = range(self.n_sites)[site]
        return _LETTER_OF[self.x >> site & 1, self.z >> site & 1]

    def is_identity(self) -> bool:
        return not (self.x or self.z)

    @property
    def is_hermitian(self) -> bool:
        """True when the phase is real (+1 or -1)."""
        return self.phase_exp % 2 == 0

    # -- algebra -----------------------------------------------------------

    def with_phase_exp(self, phase_exp: int) -> "PauliString":
        return _masked(self.n_sites, self.x, self.z, phase_exp)

    def adjoint(self) -> "PauliString":
        """Hermitian adjoint (letters are self-adjoint; phase conjugates)."""
        return self.with_phase_exp(-self.phase_exp)


# the slot descriptors' own setters get past the frozen ``__setattr__``; only
# this module writes a string's slots
_new = object.__new__
_set_n = PauliString.n_sites.__set__
_set_x = PauliString.x.__set__
_set_z = PauliString.z.__set__
_set_phase = PauliString.phase_exp.__set__
_set_support = PauliString._support.__set__


def _masked(n_sites: int, x: int, z: int, phase_exp: int) -> PauliString:
    """A string straight from its masks (no letter validation)."""
    string = _new(PauliString)
    _set_n(string, n_sites)
    _set_x(string, x)
    _set_z(string, z)
    _set_phase(string, phase_exp % 4)
    return string


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
    xa, za, xb, zb = a.x, a.z, b.x, b.z
    x, z = xa ^ xb, za ^ zb
    phase_exp = (
        a.phase_exp + b.phase_exp + 2 * (za & xb).bit_count()
        + (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    )
    return _masked(a.n_sites, x, z, phase_exp)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ``a`` and ``b`` commute.

    Two strings commute exactly when the number of sites where both letters
    are non-identity and different is even, which is the parity of
    ``|xa & zb| + |za & xb|``.
    """
    _check_same_register(a, b)
    return not _anticommute(a, b)


def _anticommute(a: PauliString, b: PauliString) -> int:
    """1 when ``a`` and ``b`` anticommute, else 0: :func:`commutes` without its
    register check, for strings known to share one register."""
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1


def restrict(string: PauliString, sites: Sequence[int]) -> PauliString:
    """``string`` on the register ``sites``: site ``sites[k]`` becomes site ``k``.

    The phase is kept.  ``sites`` must hold the string's support, else
    ``ValueError`` names the first support site it misses.
    """
    _check_width(len(sites))
    x = z = covered = 0
    for k, site in enumerate(sites):
        x |= (string.x >> site & 1) << k
        z |= (string.z >> site & 1) << k
        covered |= 1 << site
    missed = (string.x | string.z) & ~covered
    if missed:
        raise ValueError(f"site {_sites(missed)[0]} of {string} is not in {list(sites)}")
    return _masked(len(sites), x, z, string.phase_exp)


def anticommuting_pairs(strings: Sequence[PauliString]) -> list[tuple[int, int]]:
    """Sorted index pairs ``(a, b)``, ``a < b``, of strings that anticommute.

    The same test as :func:`commutes` on every pair, but clashes are counted
    only on sites the two strings share: strings are indexed by site, so a
    pair with disjoint supports (which commutes exactly) is never visited.
    The cost is ``O(T * k**2)`` for ``T`` strings with at most ``k`` strings
    per site, instead of ``O(T**2 * n)``.
    """
    by_site: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for k, string in enumerate(strings):
        _check_same_register(strings[0], string)
        x, z = string.x, string.z
        for site in string.support:
            by_site.setdefault(site, []).append((k, (x >> site & 1, z >> site & 1)))
    parity: dict[tuple[int, int], int] = {}
    for members in by_site.values():
        for i, (a, bits_a) in enumerate(members):
            for b, bits_b in members[i + 1 :]:
                if bits_b != bits_a:
                    parity[(a, b)] = parity.get((a, b), 0) ^ 1
    return sorted(pair for pair, odd in parity.items() if odd)


def _letter_order(n_sites: int, x: int, z: int) -> int:
    """An int that sorts strings like their letter tuples (site 0 first, I < X < Y < Z).

    Site ``i`` is base-4 digit ``n - 1 - i`` with value ``2 z + (x ^ z)``:
    0, 1, 2, 3 for I, X, Y, Z.
    """
    width = f"0{n_sites}b"
    return 2 * int(format(z, width)[::-1], 4) + int(format(x ^ z, width)[::-1], 4)


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
        acc: dict[tuple[int, int], complex] = {}
        for coeff, string in terms:
            if string.n_sites != n_sites:
                raise ValueError(
                    f"term on {string.n_sites} sites in a {n_sites}-site sum"
                )
            key = (string.x, string.z)
            acc[key] = acc.get(key, 0j) + coeff * string.phase
        kept = [(key, value) for key, value in acc.items() if abs(value) > TOL]
        if len(kept) > 1:
            kept.sort(key=lambda item: _letter_order(n_sites, *item[0]))
        collected = []
        for (x, z), value in kept:
            string = _masked(n_sites, x, z, 0)
            if abs(value.imag) > TOL:
                raise ValueError(
                    f"non-real coefficient {value} for term {string.format()}"
                )
            collected.append((value.real, string))
        return cls(n_sites, tuple(collected))

    @classmethod
    def from_string(cls, string: PauliString) -> "WeightedPauliSum":
        return cls.from_terms(string.n_sites, [(1.0, string)])

    def __post_init__(self) -> None:
        _check_width(self.n_sites)

    def is_identity(self) -> bool:
        """True when the sum equals the identity operator exactly (within TOL)."""
        return (
            len(self.terms) == 1
            and self.terms[0][1].is_identity()
            and abs(self.terms[0][0] - 1.0) <= TOL
        )

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
        return " + ".join(f"{c:+.6g}*{s.format()}" for c, s in self.terms)


def sum_commutes(a: WeightedPauliSum, b: WeightedPauliSum) -> bool:
    """True iff the commutator ``a*b - b*a`` collects to zero.

    Individual string pairs may fail to commute while the sums still do;
    the check is on the collected commutator, with complex accumulation
    (the commutator of Hermitian sums is anti-Hermitian, so coefficients
    are imaginary before cancellation).
    """
    _check_same_register(a, b)
    acc: dict[tuple[int, int], complex] = {}
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            ab = multiply(sa, sb)
            ba = multiply(sb, sa)
            acc[ab.x, ab.z] = acc.get((ab.x, ab.z), 0j) + ca * cb * ab.phase
            acc[ba.x, ba.z] = acc.get((ba.x, ba.z), 0j) - ca * cb * ba.phase
    return all(abs(v) <= TOL for v in acc.values())


def square(h: WeightedPauliSum) -> WeightedPauliSum:
    """The operator square ``h*h`` in collected form."""
    return h * h


def is_involution(h: WeightedPauliSum) -> bool:
    """True when ``h*h`` is exactly the identity (within TOL)."""
    return square(h).is_identity()
