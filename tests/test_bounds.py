"""Griesmer sums, optimality labels, Pless moments."""

import time

import pytest

from weilcodes.bounds import classify, griesmer, pless_check


def test_griesmer_sums():
    assert griesmer(3, 4, 12) == 12 + 4 + 2 + 1
    assert griesmer(3, 4, 13) == 13 + 5 + 2 + 1
    assert griesmer(5, 1, 7) == 7
    with pytest.raises(ValueError):
        griesmer(3, 0, 1)
    for p in (0, 1):  # p = 0 once divided by zero, p = 1 summed k d
        with pytest.raises(ValueError):
            griesmer(p, 2, 1)
    with pytest.raises(ValueError):
        classify(3, -5, 2, 1)


def test_griesmer_equals_the_plain_sum():
    # the terms are 1 from the first p^i >= d on, which the sum adds at once
    for p in (2, 3, 5, 131):
        for k in range(1, 41):
            for d in range(1, 301):
                assert griesmer(p, k, d) == sum(-(-d // p**i) for i in range(k)), (p, k, d)


def test_griesmer_takes_a_huge_k_at_once():
    start = time.perf_counter()
    assert classify(3, 20, 10**9, 12).g_of_d == 10**9 + 15  # 12 + 4 + 2 + 1, then 10^9 - 4 ones
    assert time.perf_counter() - start < 1


def test_griesmer_monotone_and_weight_one():
    for k in range(1, 6):
        assert griesmer(3, k, 1) == k
        prev = 0
        for d in range(1, 30):
            g = griesmer(3, k, d)
            assert g >= prev
            prev = g


def test_reference_classifications():
    assert classify(3, 20, 4, 12).classification == "optimal"
    assert classify(3, 30, 4, 18).classification == "almost-optimal"
    assert classify(3, 15, 4, 9).classification == "optimal"
    assert classify(3, 16, 4, 9).classification == "optimal"
    assert classify(3, 10, 4, 6).classification == "optimal"
    assert classify(3, 126, 6, 81).classification == "optimal"
    assert classify(3, 45, 5, 27).classification == "almost-optimal"
    assert classify(3, 12, 4, 6).classification == "almost-optimal"


def test_112_6_72_is_almost_optimal_under_adopted_definition():
    # g(6, 73) = 112 <= 112, so d = 73 is not excluded at n = 112: the
    # commonly quoted "optimal" label does not hold under the adopted
    # definition; the raw numbers are surfaced for the caller
    rep = classify(3, 112, 6, 72)
    assert griesmer(3, 6, 73) == 112
    assert rep.classification == "almost-optimal"
    assert rep.max_d_allowed == 73


def test_labels_are_exclusive():
    for n, k, d in [(20, 4, 12), (30, 4, 18), (40, 4, 12), (11, 4, 6)]:
        rep = classify(3, n, k, d)
        assert rep.classification in {"optimal", "almost-optimal", "neither"}


def test_pless_check():
    assert pless_check({0: 1, 12: 60, 18: 20}, 20, 4, 3)
    assert pless_check({0: 1}, 0, 0, 3)  # empty zero-dimensional code
    assert not pless_check({0: 1, 12: 61, 18: 20}, 20, 4, 3)


def _max_d_linear(p, n, k):
    """The largest d with g(k, d) <= n, by the plain scan d = 1, 2, ..."""
    max_d, d = 0, 1
    while griesmer(p, k, d) <= n:
        max_d, d = d, d + 1
    return max_d


def test_classify_bisection_matches_linear_scan():
    for p in (3, 5, 7):
        for k in range(1, 6):
            with pytest.raises(ValueError):  # a negative length is refused, not classified
                classify(p, -1, k, 1)
            for n in range(0, 90):
                want = _max_d_linear(p, n, k)
                for d in (1, 2, max(1, want), want + 1, want + 2):
                    rep = classify(p, n, k, d)
                    assert rep.max_d_allowed == want, (p, n, k, d)
                    label = {want: "optimal", want - 1: "almost-optimal"}.get(d, "neither")
                    assert rep.classification == label, (p, n, k, d)
