"""Exact group/Lie-algebra arithmetic and PBW normal ordering."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from algebra_reference import deserialize, dilate, left_invariant_derivative
from hypothesis import given, settings, strategies as st

from engellab.algebra import (
    IDENTITY,
    GroupElement,
    LieVector,
    PBWPolynomial,
    Polynomial,
    X1,
    X2,
    X3,
    X4,
    bracket,
    exp_basis,
    exp_to_semidirect,
    inverse,
    multiply,
    pbw_normal_form,
    semidirect_to_exp,
)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
group_elements = st.builds(GroupElement, fractions, fractions, fractions, fractions)
lie_vectors = st.builds(LieVector, fractions, fractions, fractions, fractions)


# -- group law ---------------------------------------------------------------


def test_product_examples():
    assert multiply(GroupElement(1, 0, 0, 0), GroupElement(0, 1, 0, 0)).coords() == (1, 1, 0, 0)
    assert multiply(GroupElement(0, 1, 0, 0), GroupElement(1, 0, 0, 0)).coords() == (1, 1, -1, 0)


def test_inverse_examples():
    assert inverse(IDENTITY) == IDENTITY
    assert inverse(GroupElement(1, 1, 0, 0)).coords() == (-1, -1, -1, 0)


@settings(max_examples=40, deadline=None)
@given(group_elements, group_elements, group_elements)
def test_associativity_exact(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@settings(max_examples=40, deadline=None)
@given(group_elements)
def test_inverse_and_involution(g):
    assert multiply(g, inverse(g)) == GroupElement(*(0 * c for c in g.coords()))
    assert inverse(inverse(g)) == g


def test_identity_neutral_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = GroupElement(*rng.standard_normal(4))
        ge = multiply(g, IDENTITY)
        assert np.allclose(ge.coords(), g.coords())
        assert np.allclose(multiply(IDENTITY, g).coords(), g.coords())


# -- dilations ---------------------------------------------------------------


def test_dilation_weights():
    assert dilate(2, GroupElement(1, 1, 1, 1)).coords() == (2, 2, 4, 8)
    assert dilate(1, GroupElement(3, -1, 2, 5)).coords() == (3, -1, 2, 5)


def test_dilation_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(0, IDENTITY)
    with pytest.raises(ValueError):
        dilate(-2.0, IDENTITY)


@settings(max_examples=30, deadline=None)
@given(group_elements, group_elements)
def test_dilation_automorphism(x, y):
    r = Fraction(3, 2)
    assert dilate(r, multiply(x, y)) == multiply(dilate(r, x), dilate(r, y))


def test_dilation_one_parameter_group():
    g = GroupElement(Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 2))
    assert dilate(Fraction(2), dilate(Fraction(3), g)) == dilate(Fraction(6), g)


# -- exponential coordinates -------------------------------------------------


def test_x2_line_is_shared():
    v = LieVector(0, Fraction(7, 3), 0, 0)
    assert exp_to_semidirect(v).coords() == (0, Fraction(7, 3), 0, 0)


def test_bch_example():
    g = exp_to_semidirect(LieVector(1, 1, 0, 0))
    assert g.coords() == (1, 1, Fraction(-1, 2), Fraction(-1, 12))


@settings(max_examples=40, deadline=None)
@given(lie_vectors)
def test_bch_round_trip(v):
    assert semidirect_to_exp(exp_to_semidirect(v)) == v


def test_conjugation_action_on_heisenberg_part():
    # Exp(x2 X2) Exp(y1 X1 + y3 X3 + y4 X4) Exp(-x2 X2)
    x2, y1, y3, y4 = Fraction(3), Fraction(2), Fraction(5), Fraction(7)
    g = exp_basis(2, x2)
    y = exp_to_semidirect(LieVector(y1, 0, y3, y4))
    conj = multiply(multiply(g, y), inverse(g))
    assert semidirect_to_exp(conj).coords() == (y1, 0, y3 - x2 * y1, y4)


# -- Lie bracket -------------------------------------------------------------


def test_bracket_relations():
    e = [LieVector(*(1 if i == j else 0 for j in range(4))) for i in range(4)]
    assert bracket(e[0], e[1]).coords() == (0, 0, 1, 0)  # [X1,X2] = X3
    assert bracket(e[0], e[2]).coords() == (0, 0, 0, 1)  # [X1,X3] = X4
    for i, j in ((0, 3), (1, 2), (1, 3), (2, 3)):
        assert bracket(e[i], e[j]).coords() == (0, 0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(lie_vectors, lie_vectors, lie_vectors)
def test_jacobi_identity(u, v, w):
    total = (
        bracket(u, bracket(v, w))
        + bracket(v, bracket(w, u))
        + bracket(w, bracket(u, v))
    )
    assert total.coords() == (0, 0, 0, 0)


@settings(max_examples=30, deadline=None)
@given(lie_vectors, lie_vectors)
def test_bracket_antisymmetric_bilinear(u, v):
    assert (bracket(u, v) + bracket(v, u)).coords() == (0, 0, 0, 0)
    c = Fraction(5, 3)
    assert bracket(c * u, v) == c * bracket(u, v)


# -- left-invariant derivatives ----------------------------------------------


def _vector_field(i, x):
    """Coordinate expression of the left-invariant fields."""
    x1, x2, x3, _ = (float(c) for c in x.coords())
    if i == 1:
        return np.array([1.0, 0.0, -x2, -0.5 * (x3 + x1 * x2)])
    if i == 2:
        return np.array([0.0, 1.0, 0.0, 0.0])
    if i == 3:
        return np.array([0.0, 0.0, 1.0, 0.5 * x1])
    return np.array([0.0, 0.0, 0.0, 1.0])


def test_directional_derivative_examples():
    f2 = lambda g: float(g.x2)
    assert left_invariant_derivative(f2, GroupElement(0.3, -0.7, 0.2, 0.9), 2) == pytest.approx(1.0)
    f4 = lambda g: float(g.x4)
    assert left_invariant_derivative(f4, IDENTITY, 1) == pytest.approx(0.0, abs=1e-10)
    f3 = lambda g: float(g.x3)
    c = 1.7
    assert left_invariant_derivative(f3, GroupElement(0, c, 0, 0), 1) == pytest.approx(-c)


def test_directional_derivative_matches_coordinate_fields():
    rng = np.random.default_rng(1)

    def f(g):
        x = np.array([float(c) for c in g.coords()])
        return float(np.sin(x[0]) + x[1] * x[3] + np.cos(x[2]) * x[1] + 0.3 * x[3] ** 2)

    def grad_f(x):
        return np.array(
            [np.cos(x[0]), x[3] + np.cos(x[2]), -np.sin(x[2]) * x[1], x[1] + 0.6 * x[3]]
        )

    for _ in range(5):
        x = GroupElement(*rng.uniform(-1.5, 1.5, size=4))
        xv = np.array([float(c) for c in x.coords()])
        for i in (1, 2, 3, 4):
            num = left_invariant_derivative(f, x, i)
            exact = float(_vector_field(i, x) @ grad_f(xv))
            assert num == pytest.approx(exact, abs=1e-8)


def test_dilation_homogeneity_of_fields():
    # X_i (f o dilate_r) (x) = r^{w_i} (X_i f)(dilate_r x)
    rng = np.random.default_rng(2)
    weights = (1, 1, 2, 3)
    r = 1.37

    def f(g):
        x = np.array([float(c) for c in g.coords()])
        return float(np.exp(-0.1 * x @ x) + x[0] * x[2] - 0.5 * x[1] * x[3])

    for _ in range(5):
        x = GroupElement(*rng.uniform(-1, 1, size=4))
        for i in (1, 2, 3, 4):
            lhs = left_invariant_derivative(lambda g: f(dilate(r, g)), x, i)
            rhs = r ** weights[i - 1] * left_invariant_derivative(f, dilate(r, x), i)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


# -- symbolic coordinates ----------------------------------------------------


def _evaluate(p, point):
    """p at t = point, exactly."""
    return sum((c * math.prod(t**e for t, e in zip(point, m)) for m, c in p.terms.items()),
               Fraction(0))


def test_polynomial_ring_operations():
    t0, t1 = Polynomial.variables(2)
    assert not ((t0 + 1) * (t0 - 1) - t0 * t0 + 1).terms
    assert not (2 - t0 + (t0 - 2)).terms
    assert (Fraction(1, 2) * t1 * 4).terms == {(0, 1): 2}
    assert (t0 * t1 * t0).terms == {(2, 1): 1}
    with pytest.raises(TypeError):
        t0 * 0.5


def test_polynomial_compares_and_hashes_by_value():
    t0, t1 = Polynomial.variables(2)
    p, q = (t0 + 1) * t1, t1 + t0 * t1
    assert p is not q and p == q and hash(p) == hash(q)
    assert len({p, q, t1 * (1 + t0)}) == 1
    assert p != t1 and p != 1
    # int and Fraction coefficients of one value are one polynomial
    assert t0.scale(2) == t0.scale(Fraction(2)) == 2 * t0
    assert hash(t0.scale(2)) == hash(t0.scale(Fraction(4, 2)))


def test_a_constant_lands_on_the_constant_monomial():
    t0, = Polynomial.variables(1)
    assert (t0 + 3).terms == {(1,): 1, (): 3}
    assert (2 - t0).terms == {(): 2, (1,): -1}
    assert (X1 + 3).terms == {(1, 0, 0, 0): 1, (0, 0, 0, 0): 3}
    assert (Fraction(1, 2) - X2).terms == {(0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): -1}
    assert X1 + 3 == X1 + PBWPolynomial.one().scale(3)
    assert (X1 + 0).terms == X1.terms and (X1 - X1 + 0).is_zero()


def test_pbw_results_keep_their_type():
    p = X2 * X1
    for result in (p + X3, p - X3, -p, p.scale(Fraction(1, 3)), p + 1, 1 - p, 2 * p,
                   p * 2, p.commutator(X2)):
        assert type(result) is PBWPolynomial
    t0, = Polynomial.variables(1)
    for result in (t0 + t0, t0 - 1, -t0, t0.scale(2), 3 * t0):
        assert type(result) is Polynomial


def test_scalar_product_is_scale_on_both_sides():
    # an int/Fraction scalar is central: scalar * p, p * scalar and
    # p.scale(scalar) agree; a float is refused on both sides, as in
    # Polynomial, and scale reads it exactly
    p = X2 * X1 + X4
    for c in (2, Fraction(-3, 4), 0):
        assert c * p == p * c == p.scale(c)
    assert (0 * p).is_zero()
    for scalar in (0.5, 1j, "2"):
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p
    assert p.scale(0.5) == p.scale(Fraction(1, 2))


def test_commutative_and_pbw_polynomials_do_not_mix():
    t0, = Polynomial.variables(1)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(t0, X1)
        with pytest.raises(TypeError):
            op(X1, t0)
    # equal terms of the two types are two different elements
    assert X1 != Polynomial({(1, 0, 0, 0): 1}) and Polynomial({(1, 0, 0, 0): 1}) != X1


def test_symbolic_product_agrees_with_rational_evaluation():
    t = Polynomial.variables(12)
    x, y, z = (GroupElement(*t[i:i + 4]) for i in (0, 4, 8))
    symbolic = multiply(multiply(x, y), z).coords()
    rng = np.random.default_rng(11)
    nums = rng.integers(-12, 13, size=(40, 12)).tolist()
    dens = rng.integers(1, 9, size=(40, 12)).tolist()
    for num, den in zip(nums, dens):
        q = [Fraction(a, b) for a, b in zip(num, den)]
        a, b, c = (GroupElement(*q[i:i + 4]) for i in (0, 4, 8))
        assert tuple(_evaluate(p, q) for p in symbolic) == multiply(multiply(a, b), c).coords()


# -- PBW normal ordering -----------------------------------------------------


def test_single_rewrite():
    assert pbw_normal_form([2, 1]) == X1 * X2 - X3


def test_enveloping_identity_x2x3():
    lhs = X2 * X3 - X1.scale(Fraction(-1, 2)).commutator((X1 * X1 + X2 * X2).scale(-1))
    assert lhs.is_zero()


def test_enveloping_identity_x3_squared():
    lhs = (X3 * X3).commutator((X1 * X1 + X2 * X2).scale(-1))
    rhs = (X1 * X3 * X4).scale(4) - (X4 * X4).scale(2)
    assert lhs == rhs


def test_bracket_x3_with_sublaplacian_sign():
    # the exact engine yields -2 X1 X4 for [X3, X1^2 + X2^2]; the source
    # text prints the opposite sign, which is logged as a known discrepancy
    assert X3.commutator(X1 * X1 + X2 * X2) == (X1 * X4).scale(-2)


def test_pbw_confluence_random_words():
    rng = np.random.default_rng(3)
    for _ in range(25):
        word = [int(g) for g in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
        ref = pbw_normal_form(word)
        # rebuilding through arbitrary parenthesisations must agree
        split = int(rng.integers(1, len(word)))
        left = pbw_normal_form(word[:split])
        right = pbw_normal_form(word[split:])
        assert left * right == ref


def test_pbw_confluence_every_word_up_to_length_five():
    # all 4 + 16 + 64 + 256 + 1024 words: the normal form of each equals the
    # product of its generators multiplied out one at a time, which reads
    # the monomial-product table instead of rewriting the word
    words = [w for k in range(1, 6) for w in itertools.product((1, 2, 3, 4), repeat=k)]
    assert len(words) == 1364
    generators = (X1, X2, X3, X4)
    for word in words:
        product = PBWPolynomial.one()
        for g in word:
            product = product * generators[g - 1]
        assert product == pbw_normal_form(word), word


def test_pbw_normal_form_and_scale_with_fraction_coefficients():
    half = pbw_normal_form([2, 1]).scale(Fraction(1, 2))
    assert half.terms == {(1, 1, 0, 0): Fraction(1, 2), (0, 0, 1, 0): Fraction(-1, 2)}
    assert half == (X1 * X2 - X3).scale(Fraction(1, 2)) == pbw_normal_form([2, 1]).scale(0.5)
    assert half.scale(2) == pbw_normal_form([2, 1])
    assert half.scale(0).is_zero() and pbw_normal_form([2, 1]).scale(0).is_zero()
    # an int coefficient stays an int
    assert all(type(c) is int for c in pbw_normal_form([2, 1]).terms.values())
    assert all(type(c) is int for c in pbw_normal_form([2, 1]).scale(3).terms.values())


def test_int_and_fraction_coefficients_compare_hash_and_print_alike():
    ints = pbw_normal_form([2, 1]).scale(2)
    fractions_ = pbw_normal_form([2, 1]).scale(Fraction(2))
    mixed = PBWPolynomial({(1, 1, 0, 0): 2, (0, 0, 1, 0): Fraction(-2)})
    text = "-2 * X1^0 X2^0 X3^1 X4^0 + 2 * X1^1 X2^1 X3^0 X4^0"
    for p in (ints, fractions_, mixed, deserialize(text)):
        assert p == ints and hash(p) == hash(ints) and p.serialize() == text
    assert len({ints, fractions_, mixed}) == 1
    assert ints != ints.scale(Fraction(1, 2))


def test_zero_polynomial_support_and_serialization():
    z = X1 - X1
    assert z.is_zero() and z.serialize() == "0"
    p = pbw_normal_form([2, 1]).scale(Fraction(1, 2))
    text = p.serialize()
    assert text == "-1/2 * X1^0 X2^0 X3^1 X4^0 + 1/2 * X1^1 X2^1 X3^0 X4^0"
    assert deserialize(text) == p
