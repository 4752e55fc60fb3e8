from __future__ import annotations

from fractions import Fraction

import pytest

from longedge import (
    RationalPolynomial,
    finite_difference_degree,
    interpolate,
    node_polynomial,
    q_delta_templates,
    q_polynomial,
    severi_degree,
)
import longedge.polynomials as polynomials
from longedge.polynomials import finite_differences

ONE_NODE_POLY = RationalPolynomial.from_coefficients([3, -6, 3])  # 3(d-1)^2


class TestRationalPolynomial:
    def test_canonical_trailing_zeros(self):
        p = RationalPolynomial.from_coefficients([1, 2, 0, 0])
        assert p.coefficients == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_evaluation(self):
        assert ONE_NODE_POLY(5) == 48
        assert ONE_NODE_POLY(Fraction(1, 2)) == Fraction(3, 4)

    def test_arithmetic(self):
        d_minus_1 = RationalPolynomial.from_coefficients([-1, 1])
        assert (d_minus_1 * d_minus_1).scale(3) == ONE_NODE_POLY
        assert ONE_NODE_POLY - ONE_NODE_POLY == RationalPolynomial.from_coefficients([])

    def test_string_roundtrip(self):
        strings = ONE_NODE_POLY.to_strings()
        assert strings == ["3", "-6", "3"]
        assert RationalPolynomial.from_strings(strings) == ONE_NODE_POLY
        halves = RationalPolynomial.from_coefficients([Fraction(9, 2), -27])
        assert halves.to_strings() == ["9/2", "-27"]
        assert RationalPolynomial.from_strings(["9/2", "-27"]) == halves

    def test_pretty(self):
        assert ONE_NODE_POLY.pretty("d") == "3*d^2 - 6*d + 3"
        assert RationalPolynomial.from_coefficients([]).pretty() == "0"


class TestInterpolate:
    def test_quadratic_through_count_data(self):
        poly = interpolate([(1, Fraction(0)), (2, Fraction(3)), (3, Fraction(12))])
        assert poly == ONE_NODE_POLY

    def test_constant(self):
        poly = interpolate([(0, Fraction(7))])
        assert poly == RationalPolynomial.from_coefficients([7])

    def test_exact_square(self):
        pts = [(x, Fraction(x * x)) for x in range(4)]
        assert interpolate(pts) == RationalPolynomial.from_coefficients([0, 0, 1])

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            interpolate([(1, Fraction(1)), (1, Fraction(2))])

    def test_roundtrips_sample_points(self):
        pts = [(x, Fraction(3 * x**3 - 5, 7)) for x in (-2, 0, 1, 4, 9)]
        poly = interpolate(pts)
        for x, y in pts:
            assert poly(x) == y


class TestFiniteDifferences:
    def test_constant(self):
        assert finite_difference_degree([5, 5, 5]) == 0

    def test_quadratic_count_data(self):
        assert finite_difference_degree([3 * (d - 1) ** 2 for d in range(1, 7)]) == 2

    def test_linear_family(self):
        assert finite_difference_degree([40 * k - 16 for k in range(4, 10)]) == 1

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            finite_difference_degree([1])

    def test_differences_helper(self):
        assert finite_differences([Fraction(1), Fraction(4), Fraction(9)]) == [3, 5]


class TestNodePolynomial:
    def test_one_node(self):
        assert node_polynomial(1) == ONE_NODE_POLY

    def test_two_nodes_factored_form(self):
        expected = (
            RationalPolynomial.from_coefficients([-1, 1])
            * RationalPolynomial.from_coefficients([-2, 1])
            * RationalPolynomial.from_coefficients([-11, -3, 3])
        ).scale(Fraction(3, 2))
        assert node_polynomial(2) == expected

    def test_three_nodes(self):
        expected = RationalPolynomial.from_coefficients(
            [525, Fraction(-829, 2), -229, Fraction(423, 2), Fraction(9, 2), -27, Fraction(9, 2)]
        )
        assert node_polynomial(3) == expected

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_degree_and_extended_agreement(self, delta):
        poly = node_polynomial(delta)
        assert poly.degree == 2 * delta
        for d in range(delta + 2, delta + 13):
            assert poly(d) == severi_degree(d, delta)

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            node_polynomial(0)
        with pytest.raises(ValueError):
            node_polynomial(5)


class TestQPolynomial:
    def test_one_node_equals_count_polynomial(self):
        assert q_polynomial(1) == ONE_NODE_POLY

    def test_two_nodes_from_classical_polynomials(self):
        # subtracting half the square of the cogenus-1 polynomial from the
        # cogenus-2 one leaves a quadratic: -21 d^2 + 117/2 d - 75/2
        n1, n2 = node_polynomial(1), node_polynomial(2)
        expected = n2 - (n1 * n1).scale(Fraction(1, 2))
        assert expected == RationalPolynomial.from_coefficients(
            [Fraction(-75, 2), Fraction(117, 2), -21]
        )
        assert q_polynomial(2) == expected

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_quadratic_degree_and_values(self, delta):
        poly = q_polynomial(delta)
        assert poly.degree <= 2
        for d in range(delta + 2, delta + 9):
            assert poly(d) == q_delta_templates(d, delta)


# node_polynomial(1) fits d = 3, 4, 5 and checks 6, 7; q_polynomial(1)
# fits the same points and checks 6..9.  The stand-in value functions
# follow 3(d - 1)^2, the true cogenus-1 answer of both, except where noted.
@pytest.mark.parametrize(
    "name, fit, last_check",
    [("severi_degree", node_polynomial, 7), ("q_delta_templates", q_polynomial, 9)],
)
class TestFitWindow:
    def test_value_off_the_polynomial_names_d(self, monkeypatch, name, fit, last_check):
        monkeypatch.setattr(
            polynomials, name, lambda d, delta: 3 * (d - 1) ** 2 + (d == last_check)
        )
        with pytest.raises(RuntimeError, match=f"delta=1 at d={last_check}:"):
            fit(1)

    def test_degree_below_expected_raises(self, monkeypatch, name, fit, last_check):
        monkeypatch.setattr(polynomials, name, lambda d, delta: 3 * d)
        with pytest.raises(RuntimeError, match="has degree 1, expected 2"):
            fit(1)
