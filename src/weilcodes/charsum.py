"""Additive character sums over F_{p^m}, valued exactly in Z[zeta_p].

Every sum here exists in two routes: an exhaustive summation over the field
(the oracle) and a closed-form evaluator.  Closed forms are assembled as
(integer scalar) x (G_1 power in {0,1}) x zeta^e so that the irrational
sqrt(p) never enters the value domain; G_1 itself is the concrete sum over
the prime field.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .gf import FFElement, FiniteField, eta1, linearized_operator, mod_p, solve_linear


class ZeroA(Exception):
    """The quadratic/Weil sum requires a nonzero leading coefficient."""


class CycInt:
    """An element of Z[zeta_p] as an integer vector of length p.

    Canonical form uses the relation 1 + zeta + ... + zeta^{p-1} = 0 to
    force the last coefficient to zero, making equality a plain compare.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != p:
            raise ValueError(f"need {p} coefficients")
        last = coeffs[-1]
        if last:
            coeffs = [c - last for c in coeffs]
            coeffs[-1] = 0
        self.p = p
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def zero(cls, p):
        return cls(p, [0] * p)

    @classmethod
    def integer(cls, p, n):
        return cls(p, [n] + [0] * (p - 1))

    @classmethod
    def zeta(cls, p, e=1):
        v = [0] * p
        v[e % p] = 1
        return cls(p, v)

    def _check(self, other):
        if not isinstance(other, CycInt) or other.p != self.p:
            raise TypeError("CycInt operands must share p")

    def __add__(self, other):
        self._check(other)
        return CycInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CycInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, [a * other for a in self.coeffs])
        self._check(other)
        p = self.p
        # the nonzero terms of other once, so a product with zeta^e costs O(p), not O(p^2)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[(i + j) % p] += a * b
        return CycInt(p, out)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycInt":
        """Apply zeta -> zeta^k (k invertible mod p)."""
        if k % self.p == 0:
            raise ValueError("k must be invertible mod p")
        out = [0] * self.p
        for i, a in enumerate(self.coeffs):
            out[(i * k) % self.p] += a
        return CycInt(self.p, out)

    def conjugate(self) -> "CycInt":
        return self.galois(self.p - 1)

    def abs_square(self) -> "CycInt":
        return self * self.conjugate()

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, CycInt) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycInt(p={self.p}, {self.coeffs})"


def even_l_power(p: int, e: int) -> int:
    """L^e for even e, L the fourth root of unity with L = 1 for p = 1 mod 4 and L = i for p = 3 mod 4.

    Stated as L = i^{(p-1)^2/4}; only even powers of L ever reach enumerator
    arithmetic, and those collapse to the integer eta1(-1)^{e/2}.
    """
    if e % 2:
        raise ValueError(f"odd power L^{e} is not an integer")
    return eta1(p, -1) ** ((e // 2) % 2)


@lru_cache(maxsize=None)
def g1(p: int) -> CycInt:
    """The concrete Gauss sum over F_p: sum of eta1(c) zeta^c."""
    v = [0] * p
    for c in range(1, p):
        v[c] += eta1(p, c)
    return CycInt(p, v)


# ---------------------------------------------------------------------------
# brute-force sums
# ---------------------------------------------------------------------------

def _counts_to_cyc(p, counts) -> CycInt:
    return CycInt(p, [int(c) for c in counts])


def _exhaustive_sum(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """Sum of zeta^{Tr(a x^{p^u + 1} + b x)} over every x of the field, term by term.

    The exponents are one digit form on every x (`FiniteField.trace_values`),
    exact, so the sum is one bincount; it builds no power table and no (q, q) table.
    """
    return _counts_to_cyc(field.p, np.bincount(field.trace_values(u, a, b), minlength=field.p))


def gauss_sum_bruteforce(field: FiniteField) -> CycInt:
    """Exhaustive sum of eta(c) zeta^{Tr(c)} over the whole field.

    Summed as zeta^{Tr(x^2)} over every x, which is the same sum: x^2 = c
    has 1 + eta(c) roots, and zeta^{Tr(c)} summed over all c vanishes.
    """
    return _counts_to_cyc(field.p, np.bincount(field.quadratic_trace(0), minlength=field.p))


def orthogonality_sum(field: FiniteField, b: FFElement) -> CycInt:
    """Exhaustive sum of zeta^{Tr(bx)} over every x of the field."""
    return _exhaustive_sum(field, 0, field.zero(), b)


def weil_sum_bruteforce(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """Exhaustive sum of zeta^{Tr(a x^{p^u + 1} + b x)}; u counts mod m, as x^{p^m} = x."""
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    return _exhaustive_sum(field, u, a, b)


def quad_sum_bruteforce(field: FiniteField, a: FFElement, b: FFElement) -> CycInt:
    """Exhaustive sum of zeta^{Tr(a x^2 + b x)}: x^2 is x^{p^0 + 1}."""
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    return _exhaustive_sum(field, 0, a, b)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def gauss_sum_closed(p: int, m: int) -> CycInt:
    """G_m = (-1)^{m-1} L^m p^{m/2}, expressed inside Z[zeta_p].

    Even m gives a plain integer; odd m trades L p^{1/2} for one factor of
    the concrete G_1, keeping the value exact.
    """
    if m % 2 == 0:
        val = (-1) ** (m - 1) * even_l_power(p, m) * p ** (m // 2)
        return CycInt.integer(p, val)
    coef = (-1) ** (m - 1) * even_l_power(p, m - 1) * p ** ((m - 1) // 2)
    return coef * g1(p)


def _weil_dispatch(field: FiniteField, u: int, a: FFElement):
    """Per-(u mod m, a) data for the closed Weil sum, kept with the field: solver and scale.

    The sum is scale * zeta^e when the shift equation is solvable, else 0.
    For m/v even, (p^m - 1)/(p^v + 1) = (p^v - 1) sum_{j < m/2v} p^{2vj}, so
    a^{(p^m-1)/(p^v+1)} = c^{p^v} / c with c = prod_j a^{p^{2vj}}: the case
    test is c^{p^v} = (-1)^{s/v} c, Frobenius images and m/2v - 1 products.
    """
    p, m = field.p, field.m
    u %= m
    v = math.gcd(m, u)

    def build():
        op = linearized_operator(field, a, u)
        if (m // v) % 2 == 1:
            return op, gauss_sum_closed(p, m) * a.eta()
        s = m // 2
        sign = (-1) ** (s // v)
        c = a.frobenius_product(2 * v, m // (2 * v))
        if c.frobenius_iterate(v) != (c if sign == 1 else -c):
            return op, CycInt.integer(p, sign * p**s)
        return op, CycInt.integer(p, -sign * p ** (s + v))

    return field.cached(("weil", u, a.index), build)


def weil_sum_closed(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """S_{m,u}(a, b) via the case split on m/v and the permutation test.

    Dispatch: m/v odd -> G_m eta_m(a) zeta^{Tr(-a x0^{p^u+1})} with x0 the
    unique solution; m/v even splits on a^{(p^m-1)/(p^v+1)} vs (-1)^{s/v}
    into the invertible case (+-p^s zeta^e) and the singular case
    (-+p^{s+v} zeta^e, or 0 when unsolvable).
    """
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    op, scale = _weil_dispatch(field, u, a)
    x0 = solve_linear(op, -(b.frobenius_iterate(u)))
    if x0 is None:
        return CycInt.zero(field.p)
    e = (-(a * x0.frobenius_iterate(u) * x0)).trace()  # Tr(-a x0^{p^u+1})
    return scale * CycInt.zeta(field.p, e)


def quad_sum_closed(field: FiniteField, a: FFElement, b: FFElement) -> CycInt:
    """Q_m(a, b) = G_m eta(a) zeta^{Tr(-b^2 / 4a)}."""
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    p, m = field.p, field.m
    four_a = field.scalar(4) * a
    e = (-(b * b / four_a)).trace()
    return gauss_sum_closed(p, m) * a.eta() * CycInt.zeta(p, e)


def gamma_table(field: FiniteField, u: int) -> np.ndarray:
    """Index of gamma_b for every b index, -1 where X^{p^{2u}} + X = -b^{p^u} is unsolvable.

    The right-hand side is F_p-linear in b, so one elimination serves every b:
    gamma_b is the designated solution (free coordinates zero) that
    `LinOperator.solve_rows` finds for all the digit rows of -b^{p^u} at
    once.  The table is kept with the field under u mod m, as x^{p^m} = x.
    """
    u %= field.m

    def build():
        op = linearized_operator(field, field.one(), u)
        rhs = mod_p(-field.digits() @ field.frob_matrix(u), field.p)
        solvable, gam = op.solve_rows(rhs)
        return np.where(solvable, field.indices_of(gam), -1)

    return field.cached(("gamma", u), build)


def gamma_of(field: FiniteField, u: int, b: FFElement) -> FFElement | None:
    """The designated solution of X^{p^{2u}} + X = -b^{p^u} (None when unsolvable).

    The first call for a (field, u mod m) turns `gamma_table` into a list of
    elements (None where unsolvable), kept with the field; each call is then
    one read of the field's cache dict and one list index.
    """
    key = ("gamma_of", u % field.m)
    solutions = field._caches.get(key)
    if solutions is None:
        solutions = field.cached(
            key, lambda: [None if g < 0 else FFElement(field, None, g) for g in gamma_table(field, u).tolist()]
        )
    idx = b._index  # the stored index, without the property's call
    return solutions[b.index if idx is None else idx]
