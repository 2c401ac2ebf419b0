"""An exact rational type that the package's float routines run on
unmodified, computing the exact value of their own formulas on the same
floats, and the round-off bounds held against it."""

import functools
import math
import sys
from fractions import Fraction

U = Fraction(sys.float_info.epsilon) / 2  # the unit round-off
# the error of a product or quotient that underflows; sums do not round there
ETA = Fraction(1, 2**1075)
MAX = Fraction(sys.float_info.max)
EDGE = Fraction(2**1024 - 2**970)  # the least magnitude that rounds to ±inf


@functools.cache
def gamma(k: int) -> Fraction:
    """γₖ = k·u/(1 − k·u): k roundings (1 + δ₁)···(1 + δₖ) lie within it of 1."""
    return k * U / (1 - k * U)


def _sides(method):
    """Exact's forward and reflected methods for a binary Fraction method."""
    return (lambda a, b: Exact(method(a, b if isinstance(b, Fraction) else Fraction(b))),
            lambda b, a: Exact(method(Fraction(a), b)))


class Exact(Fraction):
    """A Fraction that takes floats exactly in + - * /, from either side, and
    stays Exact under -x and abs (a plain Fraction meeting a float gives a
    float). float(x) rounds, to ±inf past the float range, and format(x,
    spec) formats that float. NaN and ±inf have no exact value."""

    __add__, __radd__ = _sides(Fraction.__add__)
    __sub__, __rsub__ = _sides(Fraction.__sub__)
    __mul__, __rmul__ = _sides(Fraction.__mul__)
    __truediv__, __rtruediv__ = _sides(Fraction.__truediv__)

    def __neg__(self):
        return Exact(-Fraction(self))

    def __abs__(self):
        return Exact(abs(Fraction(self)))

    def __float__(self):
        try:
            return Fraction.__float__(self)
        except OverflowError:
            return -math.inf if self < 0 else math.inf

    def __format__(self, spec):
        return format(float(self), spec)


def lift(xs) -> list:
    """The floats `xs` as Exact numbers."""
    return [Exact(x) for x in xs]


def assert_rounds_to(got: float, want, magnitude, k: int, slack) -> None:
    """Hold the float `got` of a sum of products to its exact value `want`.

    With `magnitude` the sum of the exact products' magnitudes and k the
    roundings along the longest chain, each product reaches `got` times
    (1 + θ), |θ| ≤ γₖ, so |got − want| ≤ γₖ·magnitude + `slack`, the error
    of products that underflow: ETA each, times what multiplies them later,
    and under twice that once rounded on ((1 + γₖ) < 2). Where
    magnitude·(1 + γₖ) < MAX, no partial result overflows and `got` is
    finite; where |want| passes EDGE by more than the bound, it is ±inf or
    NaN. In between, a non-finite `got` of a finite `want` is the spurious
    overflow of ROADMAP item 9, not asserted."""
    bound = gamma(k) * magnitude + slack
    if magnitude * (1 + gamma(k)) < MAX:
        assert math.isfinite(got), (got, want)
    if abs(want) - bound >= EDGE:
        assert not math.isfinite(got), (got, want)
    elif math.isfinite(got):
        assert abs(Fraction(got) - want) <= bound, (got, want, bound)
