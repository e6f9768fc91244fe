import pytest

from surface_minors.bounds import FloorUncertain, certified_floor_log, log2_of_int


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
