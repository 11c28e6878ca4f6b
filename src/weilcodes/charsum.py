"""Additive character sums over F_{p^m}, valued exactly in Z[zeta_p].

Every sum here exists in two routes: an exhaustive summation over the field
(the oracle) and a closed-form evaluator.  Closed forms are assembled as
(integer scalar) x (G_1 power in {0,1}) x zeta^e so that the irrational
sqrt(p) never enters the value domain; G_1 itself is the concrete sum over
the prime field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FFElement, FiniteField, linearized_operator, solve_linear


class ZeroA(Exception):
    """The quadratic/Weil sum requires a nonzero leading coefficient."""


class OddQuotient(Exception):
    """Operation requires m2/v to be even."""


def eta1(p: int, x: int) -> int:
    """Legendre symbol of x mod p, with eta1(0) = 0."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


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
        out = [0] * self.p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.p] += a * b
        return CycInt(self.p, out)

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


@dataclass(frozen=True)
class GaussScale:
    """The fourth root of unity L with L = 1 for p = 1 mod 4 and L = i for p = 3 mod 4.

    Stated as L = i^{(p-1)^2/4}; only even powers of L ever reach enumerator
    arithmetic, and those collapse to the integer eta1(-1)^{e/2}.
    """

    p: int

    @property
    def sign_exponent(self) -> int:
        return ((self.p - 1) ** 2 // 4) % 4

    def even_power(self, e: int) -> int:
        if e % 2:
            raise ValueError(f"odd power L^{e} is not an integer")
        return eta1(self.p, -1) ** ((e // 2) % 2)


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


def _exhaustive_sum(field: FiniteField, e: int, a: FFElement, b: FFElement) -> CycInt:
    """Sum of zeta^{Tr(a x^e + b x)} over every x of the field, term by term.

    Tr(a y) for every y is one row of the trace form, so the whole sum costs
    O(q m) and builds no (q, q) table.
    """
    tr_a, tr_b = field.trace_forms([a.index, b.index])
    exps = tr_a[field.power_table(e)] + tr_b
    return _counts_to_cyc(field.p, np.bincount(exps % field.p, minlength=field.p))


def gauss_sum_bruteforce(field: FiniteField) -> CycInt:
    """Exhaustive sum of eta(c) zeta^{Tr(c)} over the whole field.

    Summed as zeta^{Tr(x^2)} over every x, which is the same sum: x^2 = c
    has 1 + eta(c) roots, and zeta^{Tr(c)} summed over all c vanishes.
    """
    return _exhaustive_sum(field, 2, field.one(), field.zero())


def orthogonality_sum(field: FiniteField, b: FFElement) -> CycInt:
    """Sum of zeta^{Tr(bx)} over x; brute force, asserted against the closed form."""
    p = field.p
    val = _exhaustive_sum(field, 1, field.zero(), b)
    expected = CycInt.integer(p, field.q) if b.is_zero() else CycInt.zero(p)
    assert val == expected, "orthogonality relation violated"
    return val


def weil_sum_bruteforce(field: FiniteField, u: int, a: FFElement, b: FFElement) -> CycInt:
    """Exhaustive sum of zeta^{Tr(a x^{p^u + 1} + b x)}."""
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    return _exhaustive_sum(field, field.p**u + 1, a, b)


def quad_sum_bruteforce(field: FiniteField, a: FFElement, b: FFElement) -> CycInt:
    """Exhaustive sum of zeta^{Tr(a x^2 + b x)}."""
    if a.is_zero():
        raise ZeroA("a must be nonzero")
    return _exhaustive_sum(field, 2, a, b)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def gauss_sum_closed(p: int, m: int) -> CycInt:
    """G_m = (-1)^{m-1} L^m p^{m/2}, expressed inside Z[zeta_p].

    Even m gives a plain integer; odd m trades L p^{1/2} for one factor of
    the concrete G_1, keeping the value exact.
    """
    L = GaussScale(p)
    if m % 2 == 0:
        val = (-1) ** (m - 1) * L.even_power(m) * p ** (m // 2)
        return CycInt.integer(p, val)
    coef = (-1) ** (m - 1) * L.even_power(m - 1) * p ** ((m - 1) // 2)
    return coef * g1(p)


def _scaled_zeta(p: int, scalar: int, g1_power: int, e: int) -> CycInt:
    out = CycInt.zeta(p, e) * scalar
    if g1_power:
        out = out * g1(p)
    return out


def _eta_scalar_ext(field: FiniteField, x: int) -> int:
    # quadratic character of a prime-field value seen inside F_{p^m}
    if x % field.p == 0:
        return 0
    return 1 if field.m % 2 == 0 else eta1(field.p, x)


def _weil_dispatch(field: FiniteField, u: int, a: FFElement):
    """Per-(u, a) data for the closed Weil sum, kept with the field: solver and scale.

    The sum is scale * zeta^e when the shift equation is solvable, else 0.
    """
    p, m = field.p, field.m
    v = math.gcd(m, u)

    def build():
        op = linearized_operator(field, a, u)
        if (m // v) % 2 == 1:
            return op, gauss_sum_closed(p, m) * a.eta()
        s = m // 2
        sign = (-1) ** (s // v)
        if a ** ((p**m - 1) // (p**v + 1)) != field.scalar(sign):
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
    sol = solve_linear(op, -(b.frobenius_iterate(u)))
    if sol.kind == "none":
        return CycInt.zero(field.p)
    x0 = sol.particular
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


def restricted_power_check(z: int, field: FiniteField, u: int) -> bool:
    """Whether z^{(p^m-1)/(p^v+1)} = 1 for the prime-field unit z; needs m/v even."""
    p, m = field.p, field.m
    v = math.gcd(m, u)
    if (m // v) % 2:
        raise OddQuotient(f"m/v = {m // v} is odd")
    zi = field.scalar(z)
    return zi ** ((p**m - 1) // (p**v + 1)) == field.one()


def gamma_table(field: FiniteField, u: int) -> np.ndarray:
    """Index of gamma_b for every b index, -1 where X^{p^{2u}} + X = -b^{p^u} is unsolvable.

    The right-hand side is F_p-linear in b, so one elimination serves every b:
    gamma_b is solve_linear's particular solution, applied to all the digit
    rows of -b^{p^u} at once.  The table is kept with the field.
    """

    def build():
        op = linearized_operator(field, field.one(), u)
        rhs = -field.digits() @ field.frob_matrix(u) % field.p
        solvable, gam = op.solve_rows(rhs)
        return np.where(solvable, field.indices_of(gam), -1)

    return field.cached(("gamma", u), build)


def gamma_of(field: FiniteField, u: int, b: FFElement) -> FFElement | None:
    """The designated solution of X^{p^{2u}} + X = -b^{p^u} (None when unsolvable)."""
    gi = gamma_table(field, u).item(b.index)
    return None if gi < 0 else FFElement(field, None, gi)


def weil_sum_scalar_closed(field: FiniteField, u: int, z1: int, z2: int, b: FFElement) -> CycInt:
    """S_{m,u}(z1, z2 b) for prime-field units z1, z2: the restricted fast path.

    m/v odd:        G_m eta_m(z1) zeta^{-(z2^2/z1) Tr(gamma_b^{p^u+1})}
    m/v = 2 mod 4:  -p^s zeta^{same}
    m/v = 0 mod 4:  -p^{s+v} zeta^{same} when solvable, else 0
    """
    p, m = field.p, field.m
    z1 %= p
    z2 %= p
    if z1 == 0:
        raise ZeroA("z1 must be a unit")
    v = math.gcd(m, u)
    gam = gamma_of(field, u, b) if z2 else field.zero()
    if (m // v) % 2 == 1:
        t2 = (gam ** (p**u + 1)).trace()
        e = (-z2 * z2 * pow(z1, p - 2, p) * t2) % p
        return gauss_sum_closed(p, m) * _eta_scalar_ext(field, z1) * CycInt.zeta(p, e)
    s = m // 2
    if (m // v) % 4 == 2:
        t2 = (gam ** (p**u + 1)).trace()
        e = (-z2 * z2 * pow(z1, p - 2, p) * t2) % p
        return _scaled_zeta(p, -(p**s), 0, e)
    if gam is None:
        return CycInt.zero(p)
    t2 = (gam ** (p**u + 1)).trace()
    e = (-z2 * z2 * pow(z1, p - 2, p) * t2) % p
    return _scaled_zeta(p, -(p ** (s + v)), 0, e)
