from fractions import Fraction

import pytest

from surface_minors.bounds import (FloorUncertain, Log2Interval, certified_floor_log,
                                   check_superadditive, constants, log2_of_int, log2_of_sum)


def exact_floor_log(value: int, num: int, den: int = 1) -> int:
    """Largest j with (num/den)^j <= value, by integer comparison."""
    j = 0
    while num ** (j + 1) <= value * den ** (j + 1):
        j += 1
    return j


@pytest.mark.parametrize("k", [20, 40, 60])
def test_floor_log_next_to_powers_of_three(k):
    # 3**k - 1 lies within about 3**-k of an integer logarithm, far below
    # what a 53-bit float can separate
    assert certified_floor_log(3 ** k - 1, 3) == k - 1 == exact_floor_log(3 ** k - 1, 3)
    assert certified_floor_log(3 ** k + 1, 3) == k == exact_floor_log(3 ** k + 1, 3)


def test_floor_log_four_thirds_next_to_powers():
    for k in (30, 60, 90):
        below = 4 ** k // 3 ** k  # (4/3)^k is never an integer
        for value in (below, below + 1):
            assert certified_floor_log(value, 4, 3) == exact_floor_log(value, 4, 3)


def test_floor_log_exact_power_is_uncertain():
    with pytest.raises(FloorUncertain):
        certified_floor_log(3 ** 20, 3)


def test_log2_separates_neighbours_of_a_power_of_two():
    # log2(2**70 -+ 1) differs from 70 by about 1e-21: the enclosure must
    # keep its exact endpoints to tell them apart
    below, above = log2_of_int(2 ** 70 - 1), log2_of_int(2 ** 70 + 1)
    assert below.lo < below.hi < 70 < above.lo < above.hi


def log2_cmp(h: Fraction, value: Fraction) -> int:
    """Sign of h - log2(value), decided exactly: a power of two has an
    integer logarithm, any other value an irrational one, which certified
    enclosures at growing precision separate from h."""
    p, q = value.numerator, value.denominator
    if p & (p - 1) == 0 and q & (q - 1) == 0:
        k = p.bit_length() - q.bit_length()
        return (h > k) - (h < k)
    for prec in (256, 1024, 4096):
        ref = log2_of_int(p, prec) - log2_of_int(q, prec)
        if h < ref.lo:
            return -1
        if h > ref.hi:
            return 1
    raise AssertionError(f"{h} not separated from log2({value})")


def assert_encloses_sums(a: Log2Interval, b: Log2Interval, low: Fraction, high: Fraction):
    """log2_of_sum(a, b) reaches from log2(low) to log2(high), the exact
    sums at the matching ends of a and b."""
    s = log2_of_sum(a, b)
    assert log2_cmp(s.lo, low) <= 0 <= log2_cmp(s.hi, high)


@pytest.mark.parametrize("x", [1, 2, 3, 7, 3 ** 40, 2 ** 60, 2 ** 60 + 1])
@pytest.mark.parametrize("y", [1, 5, 2 ** 60 - 1, 3 ** 41])
def test_log2_of_sum_encloses_integer_sums(x, y):
    a, b = log2_of_int(x), log2_of_int(y)
    assert_encloses_sums(a, b, Fraction(x + y), Fraction(x + y))
    # an interval spanning two values takes the sums at both ends
    wide = Log2Interval(a.lo, log2_of_int(5 * x).hi)
    assert_encloses_sums(wide, b, Fraction(x + y), Fraction(5 * x + y))


def test_log2_of_sum_takes_the_larger_upper_end():
    # the upper end is log2(2^0 + 2^5) = log2 33, not 1 + max(lower ends)
    assert_encloses_sums(Log2Interval(Fraction(0), Fraction(0)),
                         Log2Interval(Fraction(-1), Fraction(5)), Fraction(3, 2), Fraction(33))
    # log2(1 + 2**-60) is positive, although a float rounds it to 0
    tiny = Fraction(1) + Fraction(1, 2 ** 60)
    assert_encloses_sums(Log2Interval(Fraction(0), Fraction(0)),
                         Log2Interval(Fraction(-60), Fraction(-60)), tiny, tiny)


@pytest.mark.parametrize("g", range(7))
def test_tower_identities(g):
    t = constants(g)
    assert t.T + 1 == 264 * (g + 2) * (t.m + 1)
    product = log2_of_int(t.Q) + t.r_log2
    assert product.lo <= t.u_log2.lo and t.u_log2.hi <= product.hi
    # a sharper log2 Q still meets the enclosure of U
    sharp = log2_of_int(t.Q, 320) + t.r_log2
    assert max(sharp.lo, t.u_log2.lo) <= min(sharp.hi, t.u_log2.hi)


def test_tower_grows_with_the_genus():
    towers = [constants(g) for g in range(7)]
    for a, b in zip(towers, towers[1:]):
        assert a.m <= b.m and a.T < b.T and a.A <= b.A and a.Q < b.Q
        assert a.u_log2.hi < b.u_log2.lo


def test_final_bound_is_superadditive():
    def final(g):
        return constants(g).u_log2
    # test_certify covers (1, 1) and (1, 2)
    for g1, g2 in [(1, 4), (2, 2), (2, 3), (3, 3)]:
        assert check_superadditive(final, g1, g2), (g1, g2)
    # N(0 + 1) >= N(0) + N(1) fails for any positive N
    assert not check_superadditive(final, 0, 1)
