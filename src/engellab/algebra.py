"""Exact arithmetic for the Engel Lie algebra and group.

The Lie algebra is spanned by X1..X4 with the only nonzero brackets

    [X1, X2] = X3,   [X1, X3] = X4,

stratified as g1 = span(X1, X2), g2 = span(X3), g3 = span(X4), with
dilation weights (1, 1, 2, 3) and homogeneous dimension Q = 7.

Group elements are stored in semidirect coordinates: the point
(x1, x2, x3, x4) stands for Exp(x1 X1 + x3 X3 + x4 X4) Exp(x2 X2).
All operations are exact on int/Fraction coordinates and work for float
coordinates; on float arrays they act elementwise, so one GroupElement
whose coordinates are (M,) arrays is a batch of M points.  On `Polynomial`
coordinates they are exact as well, so one symbolic evaluation proves a
polynomial identity of the group or the algebra for every point.

`Polynomial` is the one exact term type.  `PBWPolynomial`, an element of
the universal enveloping algebra, is a Polynomial that differs only in its
product (PBW normal ordering) and its constant monomial (0, 0, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

WEIGHTS = (1, 1, 2, 3)
HOMOGENEOUS_DIMENSION = 7

# nonzero brackets among generators: (i, j) -> k  meaning [Xi, Xj] = Xk, i < j
_BRACKET_TABLE = {(1, 2): 3, (1, 3): 4}


@dataclass(frozen=True)
class GroupElement:
    """Point of the Engel group in semidirect coordinates; with float array
    coordinates, a batch of points handled elementwise."""

    x1: object
    x2: object
    x3: object
    x4: object

    def coords(self):
        return (self.x1, self.x2, self.x3, self.x4)

    def __iter__(self):
        return iter(self.coords())


IDENTITY = GroupElement(0, 0, 0, 0)


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    """Group product in semidirect coordinates."""
    half = _half_for(*x, *y)
    return GroupElement(
        x.x1 + y.x1,
        x.x2 + y.x2,
        x.x3 + y.x3 - x.x2 * y.x1,
        x.x4 + y.x4 + half * (x.x1 * y.x3 - x.x3 * y.x1) - half * x.x1 * x.x2 * y.x1,
    )


def inverse(x: GroupElement) -> GroupElement:
    """Group inverse; multiply(x, inverse(x)) is the identity."""
    return GroupElement(-x.x1, -x.x2, -x.x3 - x.x2 * x.x1, -x.x4)


def _half_for(*vals):
    """Exact 1/2 when every coordinate is an int, a Fraction or a
    Polynomial, float 0.5 otherwise (floats and float arrays)."""
    if all(isinstance(v, (int, Fraction, Polynomial)) for v in vals):
        return Fraction(1, 2)
    return 0.5


@dataclass(frozen=True)
class LieVector:
    """Element v1 X1 + v2 X2 + v3 X3 + v4 X4 of the Engel Lie algebra."""

    v1: object
    v2: object
    v3: object
    v4: object

    def coords(self):
        return (self.v1, self.v2, self.v3, self.v4)

    def __add__(self, other):
        return LieVector(*(a + b for a, b in zip(self.coords(), other.coords())))

    def __sub__(self, other):
        return LieVector(*(a - b for a, b in zip(self.coords(), other.coords())))

    def __rmul__(self, c):
        return LieVector(*(c * a for a in self.coords()))


def bracket(u: LieVector, v: LieVector) -> LieVector:
    """Lie bracket; bilinear, antisymmetric, satisfies Jacobi."""
    return LieVector(
        0 * u.v1,
        0 * u.v1,
        u.v1 * v.v2 - u.v2 * v.v1,
        u.v1 * v.v3 - u.v3 * v.v1,
    )


def exp_to_semidirect(v: LieVector) -> GroupElement:
    """Semidirect coordinates of Exp(v).

    Splits Exp(v) = Exp(a X1 + c X3 + d X4) Exp(b X2) through the
    Baker-Campbell-Hausdorff series, which terminates at triple brackets
    because the algebra is step 3:

        Exp(A)Exp(B) = Exp(A + B + [A,B]/2 + ([A,[A,B]] + [B,[B,A]])/12).
    """
    half = _half_for(*v.coords())
    twelfth = half / 6
    return GroupElement(
        v.v1,
        v.v2,
        v.v3 - half * v.v1 * v.v2,
        v.v4 - twelfth * v.v1 * v.v1 * v.v2,
    )


def semidirect_to_exp(x: GroupElement) -> LieVector:
    """Exponential coordinates of a group point; inverse of exp_to_semidirect."""
    half = _half_for(*x.coords())
    twelfth = half / 6
    return LieVector(
        x.x1,
        x.x2,
        x.x3 + half * x.x1 * x.x2,
        x.x4 + twelfth * x.x1 * x.x1 * x.x2,
    )


def exp_basis(i: int, t) -> GroupElement:
    """Exp(t Xi) in semidirect coordinates."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"generator index must be 1..4, got {i}")
    coords = [0, 0, 0, 0]
    coords[i - 1] = t
    return GroupElement(*coords)


# ---------------------------------------------------------------------------
# Exact term arithmetic: commutative polynomials and PBW polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Commutative polynomial with int/Fraction coefficients.

    `terms` maps an exponent tuple (e0, e1, ...) of t0^e0 t1^e1 ... to its
    nonzero coefficient; tuples carry no trailing zeros, so `_ONE` = () is
    the constant monomial.  The constructor takes int/Fraction coefficients
    and drops zeros; `scale` takes any number.  Polynomials of one type add,
    subtract and multiply with each other and with int/Fraction scalars on
    either side, and compare and hash by value.
    """

    __slots__ = ("terms",)
    _ONE: tuple[int, ...] = ()

    def __init__(self, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def variables(count: int) -> list["Polynomial"]:
        """The coordinate functions t0, ..., t_{count-1}."""
        return [Polynomial({(0,) * i + (1,): 1}) for i in range(count)]

    def _terms_of(self, other) -> dict | None:
        """The terms of `other`, a polynomial of this type or an int/Fraction
        constant; None for anything else."""
        if type(other) is type(self):
            return other.terms
        if isinstance(other, (int, Fraction)):
            return {self._ONE: other}
        return None

    def __add__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if self._terms_of(other) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        out: dict[tuple[int, ...], int | Fraction] = {}
        for m2, c2 in terms.items():
            for m1, c1 in self.terms.items():
                m = tuple(a + b for a, b in zip_longest(m1, m2, fillvalue=0))
                out[m] = out.get(m, 0) + c1 * c2
        return type(self)(out)

    def __rmul__(self, other):
        # a scalar is central, so scalar * p is p * scalar in every subclass
        return self.__mul__(other)

    def scale(self, c):
        """c times the polynomial, c any number (as `_exact` reads it)."""
        c = _exact(c)
        return type(self)({m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))


def _exact(c) -> int | Fraction:
    """An int coefficient as itself, any other number as a Fraction; the two
    compare, hash and print alike where their values agree."""
    return c if isinstance(c, int) else Fraction(c)


# ---------------------------------------------------------------------------
# PBW normal ordering in the universal enveloping algebra
# ---------------------------------------------------------------------------

Monomial = tuple[int, int, int, int]  # exponents of X1^a X2^b X3^c X4^d


@lru_cache(maxsize=None)
def _normal_form_word(word: tuple[int, ...]) -> tuple[tuple[Monomial, int], ...]:
    """Normal form of a product of generators, as (monomial, int coeff) pairs.

    Rewrites Xj Xi -> Xi Xj - [Xi, Xj] for the first adjacent inversion and
    recurses; termination and confluence are the standard PBW diamond
    argument for a Lie algebra with an ordered basis.
    """
    for k in range(len(word) - 1):
        j, i = word[k], word[k + 1]
        if j > i:
            swapped = word[:k] + (i, j) + word[k + 2 :]
            terms = dict(_normal_form_word(swapped))
            br = _BRACKET_TABLE.get((i, j))
            if br is not None:
                contracted = word[:k] + (br,) + word[k + 2 :]
                for mono, c in _normal_form_word(contracted):
                    newc = terms.get(mono, 0) - c
                    if newc:
                        terms[mono] = newc
                    else:
                        terms.pop(mono, None)
            return tuple(sorted(terms.items()))
    expo = [0, 0, 0, 0]
    for g in word:
        expo[g - 1] += 1
    return ((tuple(expo), 1),)


class PBWPolynomial(Polynomial):
    """Rational linear combination of ordered monomials X1^a X2^b X3^c X4^d:
    a `Polynomial` whose product is PBW normal ordering and whose constant
    monomial is (0, 0, 0, 0).

    The zero polynomial has empty support; two elements are equal iff their
    normal forms coincide, which is what makes the rewriting confluent.
    """

    __slots__ = ()
    _ONE = (0, 0, 0, 0)

    @staticmethod
    def zero() -> "PBWPolynomial":
        return PBWPolynomial()

    @staticmethod
    def one() -> "PBWPolynomial":
        return PBWPolynomial({(0, 0, 0, 0): 1})

    @staticmethod
    def generator(i: int) -> "PBWPolynomial":
        expo = [0, 0, 0, 0]
        expo[i - 1] = 1
        return PBWPolynomial({tuple(expo): 1})

    def __mul__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        out: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in terms.items():
                coeff = c1 * c2
                for mono, c in _monomial_product(m1, m2):
                    out[mono] = out.get(mono, 0) + coeff * c
        return PBWPolynomial(out)

    def commutator(self, other: "PBWPolynomial") -> "PBWPolynomial":
        return self * other - other * self

    def __repr__(self):
        return f"PBWPolynomial({self.serialize()!r})"

    def serialize(self) -> str:
        """Canonical text form, terms sorted lexicographically by exponents."""
        return " + ".join(f"{self.terms[a, b, c, d]} * X1^{a} X2^{b} X3^{c} X4^{d}"
                          for a, b, c, d in sorted(self.terms)) or "0"


def _monomial_word(mono: Monomial) -> tuple[int, ...]:
    word: list[int] = []
    for gen, expo in enumerate(mono, start=1):
        word.extend([gen] * expo)
    return tuple(word)


@lru_cache(maxsize=None)
def _monomial_product(m1: Monomial, m2: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """Normal form of the product of two ordered monomials, as
    `_normal_form_word` gives it for their joined words: the table that
    `PBWPolynomial.__mul__` reads per pair of terms."""
    return _normal_form_word(_monomial_word(m1) + _monomial_word(m2))


def pbw_normal_form(word: Sequence[int]) -> PBWPolynomial:
    """Normal form of X_{w1} X_{w2} ... (generator indices); `.scale(c)` is
    that of c times the word."""
    return PBWPolynomial(dict(_normal_form_word(tuple(word))))


# handy aliases used by tests and the CLI identity suite
X1 = PBWPolynomial.generator(1)
X2 = PBWPolynomial.generator(2)
X3 = PBWPolynomial.generator(3)
X4 = PBWPolynomial.generator(4)
