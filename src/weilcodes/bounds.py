"""Griesmer bound, optimality labels, and Pless moment checks."""

from __future__ import annotations

from dataclasses import dataclass


def griesmer(p: int, k: int, d: int) -> int:
    """g_p(k, d) = sum of ceil(d / p^i) for i < k: the minimum length of any [n,k,d] code."""
    if p < 2 or k < 1 or d < 1:
        raise ValueError("need p >= 2, k >= 1 and d >= 1")
    total = 0
    q = 1
    for i in range(k):
        if q >= d:  # every term from here on is 1
            return total + k - i
        total += -(-d // q)
        q *= p
    return total


@dataclass(frozen=True)
class GriesmerReport:
    """Raw Griesmer data plus the optimality label for an [n, k, d] code."""

    p: int
    n: int
    k: int
    d: int
    g_of_d: int
    max_d_allowed: int
    classification: str  # "optimal" | "almost-optimal" | "neither"


def classify(p: int, n: int, k: int, d: int) -> GriesmerReport:
    """Label d-optimality at fixed (n, k).

    optimal: no [n, k, d+1] code can exist (g(k, d+1) > n);
    almost-optimal: [n, k, d+1] is not Griesmer-excluded but [n, k, d+2] is.
    The raw g(k, d) and the largest Griesmer-feasible d are reported so a
    caller can apply a stricter notion.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    g_of_d = griesmer(p, k, d)
    # g(k, d) is nondecreasing in d and at least d, so the largest d with
    # g(k, d) <= n lies in [0, n]: bisect with lo feasible, hi not
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if griesmer(p, k, mid) <= n:
            lo = mid
        else:
            hi = mid
    max_d = lo
    if max_d == d:
        label = "optimal"
    elif max_d == d + 1:
        label = "almost-optimal"
    else:
        label = "neither"
    return GriesmerReport(p, n, k, d, g_of_d, max_d, label)


def pless_check(we: dict[int, int], n: int, k: int, p: int) -> bool:
    """First two Pless power moments for a code whose dual has no weight-1 words."""
    total = sum(we.values())
    first = sum(w * a for w, a in we.items())
    return total == p**k and first == p ** (k - 1) * (p - 1) * n
