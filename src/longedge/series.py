"""Truncated power series over exact rationals, plus the named q-series.

A RatSeries stores coefficients c_0..c_T; binary operations truncate to the
shorter operand.  Everything here is exact: rational powers of a series
with unit constant term come from J.C.P. Miller's recurrence, and
compositional inverses use Lagrange inversion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .graphs import check_cogenus

Rational = Union[int, Fraction]


def sigma(n: int) -> int:
    """Sum of divisors of n."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def partition_counts(order: int) -> list[int]:
    """p(0)..p(order) by the bounded-part recurrence."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            table[n] += table[n - part]
    return table


class RatSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @classmethod
    def zero(cls, order: int) -> "RatSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "RatSeries":
        return cls([1] + [0] * order)

    @classmethod
    def identity(cls, order: int) -> "RatSeries":
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls([0, 1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RatSeries({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "RatSeries":
        if order >= self.order:
            return self
        return RatSeries(self.coeffs[: order + 1])

    def _common(self, other: "RatSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "RatSeries") -> "RatSeries":
        t = self._common(other)
        return RatSeries(
            [self.coeffs[n] + other.coeffs[n] for n in range(t + 1)]
        )

    def __sub__(self, other: "RatSeries") -> "RatSeries":
        t = self._common(other)
        return RatSeries(
            [self.coeffs[n] - other.coeffs[n] for n in range(t + 1)]
        )

    def __mul__(self, other: "RatSeries") -> "RatSeries":
        t = self._common(other)
        out = [Fraction(0)] * (t + 1)
        for i, a in enumerate(self.coeffs[: t + 1]):
            if not a:
                continue
            for j in range(t + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RatSeries(out)

    def scale(self, factor: Rational) -> "RatSeries":
        f = Fraction(factor)
        return RatSeries([f * c for c in self.coeffs])

    def shift(self, n: int) -> "RatSeries":
        """Multiply by t^n, keeping the truncation order."""
        if n < 0:
            raise ValueError("shift must be nonnegative")
        return RatSeries(
            ([Fraction(0)] * n + list(self.coeffs))[: self.order + 1]
        )

    def exp(self) -> "RatSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        t = self.order
        out = [Fraction(1)] + [Fraction(0)] * t
        for n in range(1, t + 1):
            out[n] = (
                sum(k * self.coeffs[k] * out[n - k] for k in range(1, n + 1))
                / n
            )
        return RatSeries(out)

    def log(self) -> "RatSeries":
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        t = self.order
        out = [Fraction(0)] * (t + 1)
        for n in range(1, t + 1):
            out[n] = self.coeffs[n] - Fraction(
                sum(k * out[k] * self.coeffs[n - k] for k in range(1, n)), n
            )
        return RatSeries(out)

    def pow(self, exponent: Rational) -> "RatSeries":
        if self.coeffs[0] != 1:
            raise ValueError("pow needs constant term 1")
        return RatSeries(_power(self.coeffs, Fraction(exponent), self.order))

    def compose(self, inner: "RatSeries") -> "RatSeries":
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with no constant term")
        t = self._common(inner)
        acc = RatSeries.zero(t)
        for c in reversed(self.coeffs[: t + 1]):
            acc = acc * inner + RatSeries([c] + [0] * t)
        return acc

    def revert(self) -> "RatSeries":
        """Compositional inverse via Lagrange inversion."""
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        if self.coeffs[0] != 0:
            raise ValueError("reversion needs zero constant term")
        if self.coeffs[1] == 0:
            raise ValueError("reversion needs a nonzero linear term")
        t = self.order
        # h = f/t has invertible constant term c1
        h = RatSeries(list(self.coeffs[1:]) + [Fraction(0)])
        c1 = h.coeffs[0]
        unit = h.scale(1 / c1)
        out = [Fraction(0)] * (t + 1)
        for n in range(1, t + 1):
            # [t^(n-1)] unit^(-n) needs unit^(-n) only up to degree n-1
            out[n] = _power(unit.coeffs, Fraction(-n), n - 1)[n - 1] / (n * c1**n)
        return RatSeries(out)


def _power(f: Sequence[Fraction], exponent: Fraction, order: int) -> list[Fraction]:
    """Coefficients 0..order of f^exponent, f[0] = 1, by J.C.P. Miller's
    recurrence n g[n] = sum over k = 1..n of ((exponent + 1) k - n) f[k] g[n-k],
    which the log derivative g'/g = exponent f'/f gives."""
    g = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, min(n, len(f) - 1) + 1):
            if f[k]:
                acc += ((exponent + 1) * k - n) * f[k] * g[n - k]
        g.append(acc / n)
    return g


def log_exp_coeffs(values: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients 1..T of exp(sum values[d] t^d); values is 1-indexed data."""
    s = RatSeries([Fraction(0), *values])
    return list(s.exp().coeffs[1:])


def g2(order: int) -> RatSeries:
    return RatSeries([Fraction(-1, 24)] + [sigma(n) for n in range(1, order + 1)])


def dg2(order: int) -> RatSeries:
    return RatSeries([0] + [n * sigma(n) for n in range(1, order + 1)])


def d2g2(order: int) -> RatSeries:
    return RatSeries([0] + [n * n * sigma(n) for n in range(1, order + 1)])


def disc(order: int) -> RatSeries:
    """The weight-12 cusp form q * prod (1 - q^k)^24, truncated.  The product
    is exp(-24 sum sigma(n)/n q^n): log(1 - q^k) is -sum q^(km)/m."""
    if order < 1:
        raise ValueError("disc needs order >= 1")
    log_prod = RatSeries([0] + [Fraction(-24 * sigma(n), n) for n in range(1, order)])
    return RatSeries([Fraction(0), *log_prod.exp().coeffs])


def partition_series(order: int) -> RatSeries:
    return RatSeries(partition_counts(order))


def partition_series_in_power(order: int, i: int) -> RatSeries:
    """The partition generating function evaluated at q^i, truncated."""
    coeffs = [Fraction(0)] * (order + 1)
    for k, p in enumerate(partition_counts(order // i)):
        coeffs[k * i] = Fraction(p)
    return RatSeries(coeffs)


def b1_b2(order: int) -> tuple[RatSeries, RatSeries]:
    """The two exponential factors of the closed product formula."""
    from .coeffs import template_coefficients  # deferred: coeffs imports series

    check_cogenus(order)
    tables = [template_coefficients(d) for d in range(1, order + 1)]
    base = dg2(order)
    powers = [RatSeries.one(order)]
    for _ in range(order):
        powers.append(powers[-1] * base)
    s1 = RatSeries.zero(order)
    s2 = RatSeries.zero(order)
    for tab in tables:
        s1 = s1 + powers[tab.delta].scale(-tab.D)
        s2 = s2 + powers[tab.delta].scale(tab.A - tab.L)
    b1 = partition_series(order).pow(-1) * s1.exp()
    b2 = s2.exp()
    return b1, b2


def gyz_sides(
    order: int,
    x: Rational,
    y: Rational,
    z: Rational,
    w: Rational,
    s: Rational = 0,
    s_higher: Sequence[Rational] = (),
) -> tuple[RatSeries, RatSeries]:
    """Both sides of the closed product formula at one sampled variable tuple.

    Left side: the exp transform of the universal linear forms evaluated at
    the sample, summed against powers of the weight-2 generator.  Right side:
    the quasimodular product with exact rational exponents.
    """
    from .severi import that_delta  # deferred: severi imports series

    x, y, z, w, s = map(Fraction, (x, y, z, w, s))
    s_all = [s, *map(Fraction, s_higher)]

    that_vals = []
    for d in range(1, order + 1):
        that_vals.append(that_delta(d).evaluate(x, y, z, w, s_all))
    t_vals = log_exp_coeffs(that_vals)

    base = dg2(order)
    lhs = RatSeries.one(order)
    power = RatSeries.one(order)
    for d in range(1, order + 1):
        power = power * base
        lhs = lhs + power.scale(t_vals[d - 1])

    # normalized bases with unit constant term, exact rational powers
    dg2_over_q = RatSeries(dg2(order + 1).coeffs[1:])
    denom_base = RatSeries((disc(order + 2) * d2g2(order + 2)).coeffs[2:])
    b1, b2 = b1_b2(order)
    rhs = dg2_over_q.pow(Fraction(z + w, 12) + Fraction(x - y, 2))
    rhs = rhs * b1.pow(z)
    rhs = rhs * b2.pow(y)
    rhs = rhs * denom_base.pow(Fraction(-(z + w), 24))
    rhs = rhs * partition_series(order).pow(-s)
    for i, si in enumerate(s_all[1:], start=2):
        rhs = rhs * partition_series_in_power(order, i).pow(si)
    return lhs.truncate(order), rhs.truncate(order)


def gyz_check(
    order: int,
    x: Rational,
    y: Rational,
    z: Rational,
    w: Rational,
    s: Rational = 0,
    s_higher: Sequence[Rational] = (),
) -> bool:
    lhs, rhs = gyz_sides(order, x, y, z, w, s, s_higher)
    return lhs == rhs
