"""Exact rational polynomials: interpolation, finite differences, and the
node / log-quantity polynomials recovered from computed count data.

Coefficients are Fractions in lowest terms, constant term first, with no
trailing zeros, so equality of values is equality of coefficient tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .counting import severi_degree
from .qcalc import q_delta_templates

MAX_DELTA = 4


def _canonical(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial over exact rationals, constant term first."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coefficients(coeffs: Iterable) -> "RationalPolynomial":
        return RationalPolynomial(_canonical(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree 0."""
        return max(len(self.coefficients) - 1, 0)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(_canonical(out))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPolynomial(_canonical(out))

    def scale(self, factor) -> "RationalPolynomial":
        return RationalPolynomial(
            _canonical(c * Fraction(factor) for c in self.coefficients)
        )

    def to_strings(self) -> list[str]:
        """Coefficients as exact "p/q" (or plain integer) strings."""
        return [str(c) for c in self.coefficients]

    @staticmethod
    def from_strings(strings: Sequence[str]) -> "RationalPolynomial":
        return RationalPolynomial(_canonical(Fraction(s) for s in strings))

    def pretty(self, var: str = "d") -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for power in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = f"{mag}"
            else:
                coeff = "" if mag == 1 else f"{mag}*"
                body = f"{coeff}{var}" + (f"^{power}" if power > 1 else "")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# The classical node polynomials for one and two nodes, in factored form.
_D_MINUS_1, _D_MINUS_2 = (RationalPolynomial.from_coefficients([c, 1]) for c in (-1, -2))
FACTORED_NODE_POLYNOMIALS: dict[int, tuple[str, RationalPolynomial]] = {
    1: ("3*(d - 1)^2", (_D_MINUS_1 * _D_MINUS_1).scale(3)),
    2: (
        "(3/2)*(d - 1)*(d - 2)*(3*d^2 - 3*d - 11)",
        (
            _D_MINUS_1 * _D_MINUS_2 * RationalPolynomial.from_coefficients([-11, -3, 3])
        ).scale(Fraction(3, 2)),
    ),
}


def interpolate(points: Sequence[tuple[int, Fraction]]) -> RationalPolynomial:
    """Unique polynomial of degree < len(points) through the given points,
    by Lagrange basis with exact rational arithmetic."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    result = RationalPolynomial(())
    for i, (xi, yi) in enumerate(points):
        basis = RationalPolynomial((Fraction(1),))
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            factor = RationalPolynomial(
                (Fraction(-xj, xi - xj), Fraction(1, xi - xj))
            )
            basis = basis * factor
        result = result + basis.scale(yi)
    return result


def finite_differences(values: Sequence[Fraction]) -> list[Fraction]:
    return [values[i + 1] - values[i] for i in range(len(values) - 1)]


def finite_difference_degree(values: Sequence) -> int:
    """Smallest m for which the (m+1)-st differences of values sampled at
    consecutive integers all vanish (vacuously once the list runs out)."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    current = [Fraction(v) for v in values]
    m = 0
    while True:
        current = finite_differences(current)
        if all(c == 0 for c in current):
            return m
        m += 1


def _fit(name: str, value: Callable[[int, int], int | Fraction], delta: int, degree: int,
         checks: int) -> RationalPolynomial:
    """Polynomial in d through value(d, delta) at the degree + 1 points
    d = delta+2, delta+3, ..., validated on ``checks`` further values of d
    and required to have exactly the given degree.  A mismatch means the
    sample window started below the polynomiality threshold and raises
    naming the offending d."""
    if not (1 <= delta <= MAX_DELTA):
        raise ValueError(f"delta must be in 1..{MAX_DELTA}")
    ds = range(delta + 2, delta + 3 + degree + checks)
    poly = interpolate([(d, Fraction(value(d, delta))) for d in ds[: degree + 1]])
    for d in ds[degree + 1 :]:
        if poly(d) != value(d, delta):
            raise RuntimeError(
                f"{name} validation failed for delta={delta} at d={d}: "
                f"interpolation window starts below the polynomiality threshold"
            )
    if poly.degree != degree:
        raise RuntimeError(
            f"{name} for delta={delta} has degree {poly.degree}, expected {degree}"
        )
    return poly


def node_polynomial(delta: int) -> RationalPolynomial:
    """Polynomial in d giving the Severi degree for delta nodes at large d.

    Interpolates computed degrees at d = delta+2 .. delta+2+2*delta, then
    validates on two further values of d; a mismatch means the sample
    window started below the polynomiality threshold and raises naming the
    offending d.  Result has degree exactly 2*delta.
    """
    return _fit("node polynomial", severi_degree, delta, 2 * delta, 2)


def q_polynomial(delta: int) -> RationalPolynomial:
    """Quadratic in d matching the log coefficient for one cogenus at
    large d, interpolated from three values and validated on four more."""
    return _fit("log-quantity polynomial", q_delta_templates, delta, 2, 4)
