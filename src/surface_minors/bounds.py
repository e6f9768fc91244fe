"""The bound-function tower and the identities tying it together.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import iv

Q_NUMERATOR = 9073
Q_DENOMINATOR = 9072
Q = Fraction(Q_NUMERATOR, Q_DENOMINATOR)

MAX_PRECISION = 1 << 14


class FloorUncertain(ArithmeticError):
    """The floor could not be separated from an integer at max precision."""


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    frac = Fraction(man) * (Fraction(2) ** exp)
    return -frac if sign else frac


@dataclass(frozen=True)
class Log2Interval:
    """A certified enclosure of the base-2 logarithm of a positive value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        assert self.lo <= self.hi

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
        assert c >= 0
        return Log2Interval(self.lo * c, self.hi * c)

    def overlaps_within(self, other: "Log2Interval", tol: Fraction) -> bool:
        return abs(self.midpoint_fraction() - other.midpoint_fraction()) \
            <= tol + self.width + other.width

    def midpoint_fraction(self) -> Fraction:
        return (self.lo + self.hi) / 2


def log2_of_int(value: int, prec: int = 192) -> Log2Interval:
    """Certified log2 of a positive integer."""
    assert value > 0
    with mpmath.workprec(prec):
        old = iv.prec
        iv.prec = prec
        try:
            r = iv.log(iv.mpf(value)) / iv.log(iv.mpf(2))
        finally:
            iv.prec = old
    return Log2Interval(_mpf_to_fraction(r.a), _mpf_to_fraction(r.b))


def certified_floor_log(value: int, base_num: int, base_den: int = 1,
                        start_prec: int = 96) -> int:
    """floor(log_base(value)) with the floor certified by interval
    arithmetic, escalating precision until both interval ends agree.

    Exactness is checked against integer powers in the tests; an exact
    power of the base (impossible for the bases used here, kept for
    safety) or an unresolvable ambiguity raises ``FloorUncertain``.
    """
    assert value >= 1 and base_num > base_den >= 1
    if value == 1:
        return 0
    prec = start_prec
    while prec <= MAX_PRECISION:
        old = iv.prec
        iv.prec = prec
        try:
            num = iv.log(iv.mpf(value))
            den = iv.log(iv.mpf(base_num) / iv.mpf(base_den))
            r = num / den
            lo = mpmath.floor(mpmath.mpf(r.a))
            hi = mpmath.floor(mpmath.mpf(r.b))
        finally:
            iv.prec = old
        if lo == hi:
            return int(lo)
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

    def log2_float(self) -> float | None:
        if self.log2 is not None:
            return self.log2.midpoint_float()
        if isinstance(self.exact, int) and self.exact > 0:
            return math.log2(self.exact)
        return None

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


def _delta_log2(A: int, mt: int, prec: int) -> Log2Interval:
    # log2 Delta = mt^2 (2 + (1/2) log2(2 A (2mt+1)^4 mt^3))
    inner = 2 * A * (2 * mt + 1) ** 4 * mt ** 3
    base = log2_of_int(inner, prec)
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
    delta = _delta_log2(A, m_tilde, 256)
    p = _p_log2(delta, A, m_tilde)
    n_binom = (T + 1) * m_prime
    binom_sum = sum(math.comb(n_binom, a) for a in range(4))
    r_exact_factor = 3 * (3 * (T + 1) * m_prime + 1) * binom_sum * (5 * A // 6)
    assert A % 6 == 0, "A is 6 times an integer by construction"
    r = log2_of_int(r_exact_factor) + p
    u = log2_of_int(Qv) + r
    return BoundTower(g, Q, m, T, m_prime, A, m_tilde, Qv, delta, p, r, u)


def f_of(g: int, i: int) -> BoundValue:
    """The fan growth function: (4 sqrt(2A(2mt+1)^4 mt^3))^(i^2), in log2
    form; exponent 0 gives exactly 1."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    tower = constants(g)
    inner = 2 * tower.A * (2 * tower.m_tilde + 1) ** 4 * tower.m_tilde ** 3
    base = log2_of_int(inner)
    one = Log2Interval(base.lo / 2 + 2, base.hi / 2 + 2)
    val = one.scale(i * i)
    exact = 1 if i == 0 else None
    return BoundValue(f"f({g},{i})", "arch-count growth: (4 sqrt(2A(2mt+1)^4 mt^3))^(i^2)",
                      exact, val)


def recompute_identities(g: int, tol_log2: Fraction = Fraction(1, 2 ** 64)) -> dict[str, bool]:
    """Re-derive the closure identities of the tower at higher precision
    and compare within ``tol_log2`` (plus interval widths) in log2 space."""
    t = constants(g)
    out = {}
    out["T+1 == 264(g+2)(m+1)"] = (t.T + 1) == 264 * (g + 2) * (t.m + 1)
    # U = Q * R
    lhs = t.u_log2
    rhs = log2_of_int(t.Q, 320) + t.r_log2
    out["U == Q*R"] = lhs.overlaps_within(rhs, tol_log2)
    # P formula re-evaluated at doubled precision
    delta2 = _delta_log2(t.A, t.m_tilde, 512)
    p2 = _p_log2(delta2, t.A, t.m_tilde)
    out["P == Delta(Delta^2mt - 1)/(Delta-1) A"] = t.p_log2.overlaps_within(p2, tol_log2)
    return out


def asymptotic_report(g_list: list[int]) -> list[dict]:
    """log2 U(g) for each genus plus the finite-difference slope of
    log2 U against log2 g between consecutive entries."""
    if any(b <= a for a, b in zip(g_list, g_list[1:])):
        raise ValueError("genus list must be strictly increasing")
    rows = []
    prev = None
    for g in g_list:
        t = constants(g)
        u = t.u_log2.midpoint_float()
        row = {"g": g, "log2_U": u}
        if prev is not None and g > 0 and prev[0] > 0:
            row["slope"] = (u - prev[1]) / (math.log2(g) - math.log2(prev[0]))
        rows.append(row)
        prev = (g, u)
    return rows


def log2_of_sum(a: Log2Interval, b: Log2Interval) -> Log2Interval:
    """Enclosure of log2(2^a + 2^b)."""
    big, small = (a, b) if a.lo >= b.lo else (b, a)
    # 2^big <= sum <= 2^(big+1); refine with the actual gap when sane
    gap_hi = float(small.hi - big.lo)
    bump_hi = math.log2(1 + 2 ** min(gap_hi, 0.0)) if gap_hi < 0 else 1.0
    return Log2Interval(big.lo, big.hi + Fraction(bump_hi).limit_denominator(1 << 62))


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
