"""Additive character sums over F_{p^m}, valued exactly in Z[zeta_p].

Every sum here exists in two routes: an exhaustive summation over the field
(the oracle) and a closed-form evaluator.  Every closed form is a record
(c, g, e), an integer c times G_1^g times zeta^e with g in {0, 1}, so that
the irrational sqrt(p) never enters the value domain; G_1 is the concrete
sum over the prime field, and one helper writes a record out as a `CycInt`.
No closed sum multiplies two ring elements.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import FFElement, FiniteField, eta1, eta1_table, linearized_operator, mod_p, solve_linear


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
        self.coeffs = tuple(map(int, coeffs))

    @classmethod
    def zero(cls, p):
        return cls(p, [0] * p)

    @classmethod
    def integer(cls, p, n):
        return _monomial(p, n, 0, 0)

    @classmethod
    def zeta(cls, p, e=1):
        return _monomial(p, 1, 0, e)

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


def _monomial(p: int, c: int, g: int, e: int) -> CycInt:
    """The record (c, g, e) as a CycInt: c G_1^g zeta^e, for g in {0, 1}.

    g = 0 puts c at index e.  g = 1 puts c eta1(i - e) at every index i, as
    G_1 zeta^e is the sum of eta1(j) zeta^{j + e}; eta1 on F_p is
    `eta1_table`, one numpy pass over the squares, not p calls to `pow`.
    """
    if g == 0:
        v = [0] * p
        v[e % p] = c
        return CycInt(p, v)
    eta, k = eta1_table(p).tolist(), e % p
    return CycInt(p, [c * t for t in eta[-k:] + eta[:-k]])  # eta[(i - e) % p] at index i


def g1(p: int) -> CycInt:
    """The concrete Gauss sum over F_p: sum of eta1(c) zeta^c, built anew on each call."""
    return _monomial(p, 1, 1, 0)


# ---------------------------------------------------------------------------
# brute-force sums
# ---------------------------------------------------------------------------

def _exhaustive_sum(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """Sum of zeta^{Tr(a x^{p^u + 1} + b x)} over every x of the field, term by term.

    The exponents are one digit form on every x (`FiniteField.trace_values`),
    exact, so the sum is one bincount; it builds no power table and no (q, q) table.
    """
    return CycInt(field.p, np.bincount(field.trace_values(u, a, b), minlength=field.p).tolist())


def gauss_sum_bruteforce(field: FiniteField) -> CycInt:
    """Exhaustive sum of eta(c) zeta^{Tr(c)} over the whole field.

    Summed as zeta^{Tr(x^2)} over every x, which is the same sum: x^2 = c
    has 1 + eta(c) roots, and zeta^{Tr(c)} summed over all c vanishes.
    """
    return CycInt(field.p, np.bincount(field.quadratic_trace(0), minlength=field.p).tolist())


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

def _gauss_record(p: int, m: int) -> tuple[int, int]:
    """(c, g) with G_m = c G_1^g: G_m = (-1)^{m-1} L^m p^{m/2}.

    Even m gives the integer c and g = 0; odd m trades L p^{1/2} for one
    factor of the concrete G_1 (g = 1), keeping the value exact.
    """
    g = m % 2
    return (-1) ** (m - 1) * even_l_power(p, m - g) * p ** (m // 2), g


def gauss_sum_closed(p: int, m: int) -> CycInt:
    """G_m as the record (c, g, 0) of `_gauss_record`."""
    return _monomial(p, *_gauss_record(p, m), 0)


def _weil_dispatch(field: FiniteField, u: int, a: FFElement):
    """Per-(u mod m, a) data for the closed Weil sum, kept with the field: (solver, c, g).

    The sum is c G_1^g zeta^e when the shift equation is solvable, else 0.
    m/v odd gives G_m eta(a).  For m/v even, g = 0 and
    (p^m - 1)/(p^v + 1) = (p^v - 1) sum_{j < m/2v} p^{2vj}, so
    a^{(p^m-1)/(p^v+1)} = w^{p^v} / w with w = prod_j a^{p^{2vj}}: the case
    test is w^{p^v} = (-1)^{s/v} w, Frobenius images and m/2v - 1 products.
    """
    p, m = field.p, field.m
    u %= m
    v = math.gcd(m, u)

    def build():
        op = linearized_operator(field, a, u)
        if (m // v) % 2 == 1:
            c, g = _gauss_record(p, m)
            return op, c * a.eta(), g
        s = m // 2
        sign = (-1) ** (s // v)
        w = a.frobenius_product(2 * v, m // (2 * v))
        if w.frobenius_iterate(v) != (w if sign == 1 else -w):
            return op, sign * p**s, 0
        return op, -sign * p ** (s + v), 0

    return field.cached(("weil", u, a.index), build)


def weil_sum_closed(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """S_{m,u}(a, b) as the record (c, g, e) of `_weil_dispatch`, e = Tr(-a x0^{p^u+1}).

    x0 solves the shift equation a^{p^u} X^{p^{2u}} + a X = -b^{p^u}; it is read
    as y = -x0, the solution at b^{p^u}, since (-x0)^{p^u+1} = x0^{p^u+1}.  m/v odd
    gives G_m eta_m(a) zeta^e with x0 unique; m/v even splits on
    a^{(p^m-1)/(p^v+1)} vs (-1)^{s/v} into the invertible case (+-p^s zeta^e)
    and the singular case (-+p^{s+v} zeta^e, or 0 when unsolvable).
    """
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    op, c, g = _weil_dispatch(field, u, a)
    y = solve_linear(op, b.frobenius_iterate(u))
    if y is None:
        return CycInt.zero(field.p)
    return _monomial(field.p, c, g, -(a * y.frobenius_iterate(u) * y).trace())


def quad_sum_closed(field: FiniteField, a: FFElement, b: FFElement) -> CycInt:
    """Q_m(a, b) = G_m eta(a) zeta^{Tr(-b^2 / 4a)}, as the record (c eta(a), g, e).

    One Frobenius product r = prod_{k=1}^{m-1} a^{p^k} gives N(a) = a r in F_p
    (`FFElement.norm_cofactor`), so eta(a) = eta1(N(a)) and 1/(4a) =
    r / (4 N(a)): e = -Tr(b^2 r) / (4 N(a)).
    """
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    p, m = field.p, field.m
    r, norm = a.norm_cofactor()
    c, g = _gauss_record(p, m)
    return _monomial(p, c * eta1(p, norm), g, -(b * b * r).trace() * pow(4 * norm, -1, p))


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
