"""The bound-function tower, with certified floors and log2 enclosures.

Every floor of a logarithm is certified by interval arithmetic: the
value is computed as an interval at increasing precision until both ends
share the same floor.  Since the base q = 9073/9072 is barely above 1,
these logarithms run into the tens of thousands even for tiny arguments,
and the downstream quantities overflow any direct representation;
the tower therefore keeps exact integers as long as the formulas stay
integral and switches to certified log2 intervals for the rest.

Tower, bottom to top (g is the Euler genus of the target surface):

    m      = 2(floor(log_q(3g+4)) + 2)          nested-cycle bound
    T      = 264(g+2)(m+1) - 1                  treewidth bound
    m'     = floor(log_{4/3}(3(4 m^2 (3g+3)+1)))  separation parts
    A      = 6(floor(log_{4/3}(3(3(T+1)m'+1))) (12m+8) + 3)   separator size
    mt     = 2(floor(log_q(60A+180)) + 2)       nested cycles, separator form
    Delta  = (4 sqrt(2A(2mt+1)^4 mt^3))^(mt^2)  degree/face bound   [log2]
    P      = Delta(Delta^(2mt)-1)/(Delta-1) A   planar part order   [log2]
    Q      = 3(4m^2(3g+3)+1) 3((T+1)m'+g) 2m(3g+3)                  [exact]
    R      = 3(3(T+1)m'+1) (sum_{a<=3} C((T+1)m', a)) (5/6)A P      [log2]
    U      = Q R                                 final order bound  [log2]
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Q_NUMERATOR = 9073
Q_DENOMINATOR = 9072
Q = Fraction(Q_NUMERATOR, Q_DENOMINATOR)

MAX_PRECISION = 1 << 14


class FloorUncertain(ArithmeticError):
    """The floor could not be separated from an integer at max precision."""


class BoundsError(ValueError):
    """Certified arithmetic applied outside its domain, or a bound-tower
    identity that failed."""


def _mpf_to_fraction(raw) -> Fraction:
    """The exact value of a raw mpmath float ``(sign, man, exp, bc)``.
    Going through ``mpmath.mpf`` instead would round to ``mp.prec``."""
    sign, man, exp, _ = raw
    frac = Fraction(man) * (Fraction(2) ** exp)
    return -frac if sign else frac


def _interval_ends(r) -> tuple[Fraction, Fraction]:
    """The exact endpoints of an ``iv`` interval."""
    a, b = r._mpi_
    return _mpf_to_fraction(a), _mpf_to_fraction(b)


@dataclass(frozen=True)
class Log2Interval:
    """A certified enclosure of the base-2 logarithm of a positive value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise BoundsError(f"Log2Interval: lower end {self.lo} above upper end {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __add__(self, other: "Log2Interval") -> "Log2Interval":
        return Log2Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Log2Interval") -> "Log2Interval":
        return Log2Interval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, c: int) -> "Log2Interval":
        if c < 0:
            raise BoundsError(f"Log2Interval.scale: negative factor {c}")
        return Log2Interval(self.lo * c, self.hi * c)


@contextmanager
def _iv_precision(prec: int):
    """Run interval arithmetic at ``prec`` bits; yields mpmath's interval
    context, imported on first use so that importing the package does
    not load mpmath."""
    from mpmath import iv
    old = iv.prec
    iv.prec = prec
    try:
        yield iv
    finally:
        iv.prec = old


def log2_of_int(value: int, prec: int = 192) -> Log2Interval:
    """Certified log2 of a positive integer."""
    if value <= 0:
        raise BoundsError(f"log2_of_int: {value} is not positive")
    with _iv_precision(prec) as iv:
        r = iv.log(iv.mpf(value)) / iv.log(iv.mpf(2))
    return Log2Interval(*_interval_ends(r))


def certified_floor_log(value: int, base_num: int, base_den: int = 1,
                        start_prec: int = 96) -> int:
    """floor(log_base(value)) with the floor certified by interval
    arithmetic, escalating precision until both interval ends agree.

    Exactness is checked against integer powers in the tests; an exact
    power of the base (impossible for the bases used here, kept for
    safety) or an unresolvable ambiguity raises ``FloorUncertain``.
    """
    if not (value >= 1 and base_num > base_den >= 1):
        raise BoundsError(f"certified_floor_log: needs value >= 1 and base > 1, "
                          f"got {value}, {base_num}/{base_den}")
    if value == 1:
        return 0
    prec = start_prec
    while prec <= MAX_PRECISION:
        with _iv_precision(prec) as iv:
            r = iv.log(iv.mpf(value)) / iv.log(iv.mpf(base_num) / iv.mpf(base_den))
        lo, hi = (math.floor(x) for x in _interval_ends(r))
        if lo == hi:
            return lo
        prec *= 2
    raise FloorUncertain(
        f"floor(log_{base_num}/{base_den}({value})) ambiguous at precision {MAX_PRECISION}")


def floor_log_q(value: int) -> int:
    return certified_floor_log(value, Q_NUMERATOR, Q_DENOMINATOR)


def floor_log_43(value: int) -> int:
    return certified_floor_log(value, 4, 3)


@dataclass(frozen=True)
class BoundValue:
    """A bound-function value: exact integer when representable, plus a
    certified log2 enclosure; provenance names the defining formula."""

    name: str
    provenance: str
    exact: int | Fraction | None
    log2: Log2Interval | None

    def describe(self) -> dict:
        out: dict = {"name": self.name, "provenance": self.provenance}
        if self.exact is not None:
            if isinstance(self.exact, Fraction) and self.exact.denominator != 1:
                out["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
            else:
                out["exact"] = int(self.exact) if int(self.exact) == self.exact else str(self.exact)
        if self.log2 is not None:
            out["log2"] = self.log2.midpoint_float()
            out["log2_width"] = float(self.log2.width)
        elif isinstance(self.exact, int) and self.exact > 0:
            out["log2"] = math.log2(self.exact)
        return out


@dataclass(frozen=True)
class BoundTower:
    """All bound values at one genus."""

    g: int
    q: Fraction
    m: int
    T: int
    m_prime: int
    A: int
    m_tilde: int
    Q: int
    delta_log2: Log2Interval
    p_log2: Log2Interval
    r_log2: Log2Interval
    u_log2: Log2Interval

    def values(self) -> list[BoundValue]:
        return [
            BoundValue("q", "growth ratio of interior faces across good squares",
                       self.q, None),
            BoundValue("m", "max number of well-nested cycles: 2(floor(log_q(3g+4))+2)",
                       self.m, None),
            BoundValue("T", "treewidth bound: 264(g+2)(m+1)-1", self.T, None),
            BoundValue("m_prime", "separation parts: floor(log_{4/3} 3(4m^2(3g+3)+1))",
                       self.m_prime, None),
            BoundValue("A", "separator size: 6(floor(log_{4/3} 3(3(T+1)m'+1))(12m+8)+3)",
                       self.A, None),
            BoundValue("m_tilde", "nested cycles under a size-A separator: "
                       "2(floor(log_q(60A+180))+2)", self.m_tilde, None),
            BoundValue("Delta", "degree and face bound: (4 sqrt(2A(2mt+1)^4 mt^3))^(mt^2)",
                       None, self.delta_log2),
            BoundValue("P", "planar part order: Delta(Delta^(2mt)-1)/(Delta-1) A",
                       None, self.p_log2),
            BoundValue("Q", "reduction factor to the contractible part: "
                       "3(4m^2(3g+3)+1) 3((T+1)m'+g) 2m(3g+3)", self.Q, None),
            BoundValue("R", "contractible part order: "
                       "3(3(T+1)m'+1) sum_{a<=3} C((T+1)m',a) (5/6)A P",
                       None, self.r_log2),
            BoundValue("U", "final bound on excluded minor order: Q R",
                       None, self.u_log2),
        ]


def _delta_log2(A: int, mt: int) -> Log2Interval:
    # log2 Delta = mt^2 (2 + (1/2) log2(2 A (2mt+1)^4 mt^3))
    inner = 2 * A * (2 * mt + 1) ** 4 * mt ** 3
    base = log2_of_int(inner, 256)
    half = Log2Interval(base.lo / 2 + 2, base.hi / 2 + 2)
    return half.scale(mt * mt)


def _p_log2(delta: Log2Interval, A: int, mt: int) -> Log2Interval:
    # P = Delta (Delta^{2mt} - 1)/(Delta - 1) A
    # log2 P = log2 Delta + log2(Delta^{2mt}-1) - log2(Delta-1) + log2 A
    # with  log2(x - 1) in [log2 x - 1/(ln 2 (x-1)), log2 x]; everything
    # here is astronomically large, so the corrections below are generous.
    two_mt = delta.scale(2 * mt)
    eps = Fraction(1, 10 ** 30)
    log_num = Log2Interval(two_mt.lo - eps, two_mt.hi)
    log_den = Log2Interval(delta.lo - eps, delta.hi)
    a_log = log2_of_int(A)
    return delta + log_num - log_den + a_log


@lru_cache(maxsize=4096)
def constants(g: int) -> BoundTower:
    """Evaluate the whole bound tower at Euler genus g."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    m = 2 * (floor_log_q(3 * g + 4) + 2)
    T = 264 * (g + 2) * (m + 1) - 1
    m_prime = floor_log_43(3 * (4 * m * m * (3 * g + 3) + 1))
    A = 6 * (floor_log_43(3 * (3 * (T + 1) * m_prime + 1)) * (12 * m + 8) + 3)
    m_tilde = 2 * (floor_log_q(60 * A + 180) + 2)
    Qv = (3 * (4 * m * m * (3 * g + 3) + 1)
          * 3 * ((T + 1) * m_prime + g)
          * 2 * m * (3 * g + 3))
    delta = _delta_log2(A, m_tilde)
    p = _p_log2(delta, A, m_tilde)
    n_binom = (T + 1) * m_prime
    binom_sum = sum(math.comb(n_binom, a) for a in range(4))
    r_exact_factor = 3 * (3 * (T + 1) * m_prime + 1) * binom_sum * (5 * A // 6)
    if A % 6:
        raise BoundsError("bound tower: A is 6 times an integer by construction")
    r = log2_of_int(r_exact_factor) + p
    u = log2_of_int(Qv) + r
    return BoundTower(g, Q, m, T, m_prime, A, m_tilde, Qv, delta, p, r, u)


def log2_of_sum(a: Log2Interval, b: Log2Interval) -> Log2Interval:
    """Enclosure of log2(2^x + 2^y) over x in a and y in b.  The sum
    grows with both terms, so each end is the value at the matching ends
    of a and b, enclosed by interval arithmetic."""
    return Log2Interval(_log2_sum_at(a.lo, b.lo).lo, _log2_sum_at(a.hi, b.hi).hi)


def _log2_sum_at(x: Fraction, y: Fraction) -> Log2Interval:
    """Certified log2(2^x + 2^y) = top + log2(1 + 2^gap), where top is
    the larger exponent and gap <= 0 the other one less top."""
    top, gap = max(x, y), min(x, y) - max(x, y)
    with _iv_precision(192) as iv:
        r = iv.log(1 + iv.mpf(2) ** (iv.mpf(gap.numerator) / iv.mpf(gap.denominator))) \
            / iv.log(iv.mpf(2))
    lo, hi = _interval_ends(r)
    return Log2Interval(top + lo, top + hi)


def check_superadditive(bound_fn, g1: int, g2: int) -> bool:
    """The two hypotheses for lifting a 2-connected order bound to all
    excluded minors: the function increases on [0, g1+g2], and
    N(g1+g2) >= N(g1) + N(g2)."""
    values = [bound_fn(g) for g in range(g1 + g2 + 1)]
    for a, b in zip(values, values[1:]):
        if not _definitely_less(a, b):
            return False
    total = bound_fn(g1 + g2)
    return _sum_leq(bound_fn(g1), bound_fn(g2), total)


def _as_log2(v) -> Log2Interval:
    if isinstance(v, Log2Interval):
        return v
    if isinstance(v, BoundValue):
        if v.log2 is not None:
            return v.log2
        v = v.exact
    if isinstance(v, (int, Fraction)) and v > 0:
        return log2_of_int(int(v)) if isinstance(v, int) else \
            log2_of_int(v.numerator) - log2_of_int(v.denominator)
    raise ValueError(f"cannot interpret {v!r} as a positive value")


def _definitely_less(a, b) -> bool:
    ia, ib = _as_log2(a), _as_log2(b)
    return ia.hi < ib.lo


def _sum_leq(a, b, total) -> bool:
    s = log2_of_sum(_as_log2(a), _as_log2(b))
    return s.hi <= _as_log2(total).lo


def bounds_table(g: int) -> list[dict]:
    return [v.describe() for v in constants(g).values()]
