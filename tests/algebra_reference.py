"""Group and enveloping-algebra helpers that no library code uses: the
dilation, the left-invariant derivative by central differences, and the
parser of `PBWPolynomial.serialize`'s text form."""

from fractions import Fraction
from typing import Callable

from engellab.algebra import WEIGHTS, GroupElement, PBWPolynomial, exp_basis, multiply


def dilate(r, x: GroupElement) -> GroupElement:
    """Anisotropic dilation with `WEIGHTS`; Jacobian r**HOMOGENEOUS_DIMENSION.

    Rejects non-positive r: dilations form a one-parameter group over r > 0.
    """
    if not r > 0:
        raise ValueError(f"dilation factor must be positive, got {r!r}")
    return GroupElement(*(r**w * c for w, c in zip(WEIGHTS, x)))


def left_invariant_derivative(
    f: Callable[[GroupElement], float],
    x: GroupElement,
    i: int,
    h: float | None = None,
) -> float:
    """Central difference of t -> f(x Exp(t Xi)) at t = 0.

    Approximates the left-invariant vector field Xi, which in semidirect
    coordinates reads

        X1 = d1 - x2 d3 - (x3 + x1 x2)/2 d4,  X2 = d2,
        X3 = d3 + x1/2 d4,                    X4 = d4.
    """
    if h is None:
        scale = max(1.0, max(abs(float(c)) for c in x.coords()))
        h = 1e-5 * scale
    if h <= 0:
        raise ValueError("step h must be positive")
    fp = f(multiply(x, exp_basis(i, h)))
    fm = f(multiply(x, exp_basis(i, -h)))
    return (fp - fm) / (2.0 * h)


def deserialize(text: str) -> PBWPolynomial:
    """The PBWPolynomial whose `serialize` text is text."""
    text = text.strip()
    if text == "0":
        return PBWPolynomial.zero()
    terms: dict[tuple[int, ...], Fraction] = {}
    for part in text.split(" + "):
        coeff_str, mono_str = part.split(" * ")
        expo = []
        for factor in mono_str.split():
            expo.append(int(factor.split("^")[1]))
        terms[tuple(expo)] = Fraction(coeff_str)
    return PBWPolynomial(terms)
