"""Exact arithmetic in F_p and its extensions F_{p^m}.

Elements are coefficient vectors over F_p in the power basis of a monic
irreducible modulus f; the element of index i has the base-p digits of i as
its coefficients, low degree first.  Everything is plain integer arithmetic;
no floats appear anywhere in this package's value domain.

Whole-field work runs on (N, m) arrays of digit rows, at any field size:

* a product is the schoolbook product of two rows, reduced through the
  digit rows of X^k mod f for k < 2m - 1;
* the Frobenius x -> x^p is an m x m matrix over F_p;
* the trace is a linear functional, Tr(X^i) being the trace of
  multiplication by X^i (Lidl & Niederreiter, Finite Fields, ch. 2);
* Tr(xy) is the trace-form Gram matrix G[i, j] = Tr(X^{i+j}), so the table
  of Tr(xy) is D G D^T mod p for the digit array D of all elements.

A single element (`FFElement`) keeps the index or the coefficients it was
built from and derives the other on first read, so `from_index` and `.index`
are O(1).  Its products, powers, inverse, trace and quadratic character work
on the coefficients in pure-Python polynomial arithmetic, which is faster
than a one-row array product, as is the irreducibility test.  Derived data is
kept in each field's own cache, so it is freed with the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np


class GFError(Exception):
    pass


class CompositeP(GFError):
    """Raised when p is not an odd prime."""


class ReducibleModulus(GFError):
    """Raised when a supplied modulus factors over F_p."""


class DivisionByZero(GFError):
    """Raised on inversion of zero."""


class FieldMismatch(GFError):
    """Raised when operands belong to different fields."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomials over F_p, little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    # mod is monic of degree m; result has degree < m
    m = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(m):
                prod[d - m + k] = (prod[d - m + k] - c * mod[k]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return tuple(out)


def _poly_powmod(base, e, mod, p):
    m = len(mod) - 1
    result = (1,) + (0,) * (m - 1)
    acc = tuple(base[:m]) + (0,) * (m - len(base))
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_mod(a, b, p):
    # remainder of a by nonzero b
    inv_lead = pow(b[-1], p - 2, p)
    r = list(a)
    while True:
        r = list(_trim(tuple(r)))
        if len(r) < len(b):
            return tuple(r)
        coef = (r[-1] * inv_lead) % p
        shift = len(r) - len(b)
        for k in range(len(b)):
            r[shift + k] = (r[shift + k] - coef * b[k]) % p


def _poly_gcd(a, b, p):
    a = _trim(tuple(c % p for c in a))
    b = _trim(tuple(c % p for c in b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def is_irreducible(modulus, p: int) -> bool:
    """Rabin test: X^{p^m} == X mod f, and gcd(X^{p^{m/r}} - X, f) = 1 for primes r | m."""
    mod = tuple(c % p for c in modulus)
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    if m == 1:
        return True
    if mod[0] == 0:  # X divides it
        return False
    x = (0, 1) + (0,) * (m - 2)
    if _poly_powmod(x, p**m, mod, p) != x:
        return False
    for r in _prime_factors(m):
        h = _poly_powmod(x, p ** (m // r), mod, p)
        diff = tuple((h[i] - x[i]) % p for i in range(m))
        if len(_poly_gcd(diff, mod, p)) > 1:
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m (low-degree coeffs compared first)."""
    if m == 1:
        return (0, 1)  # X itself: F_p presented with the degree-1 convention
    lower = [0] * m
    while True:
        cand = tuple(lower) + (1,)
        if is_irreducible(cand, p):
            return cand
        # odometer on (c_0, ..., c_{m-1}) with c_{m-1} fastest keeps lex order on tuples
        i = m - 1
        while i >= 0:
            lower[i] += 1
            if lower[i] < p:
                break
            lower[i] = 0
            i -= 1
        if i < 0:
            raise GFError(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

# entries per transient block of a table built in row blocks: an int64 block
# stays under 128 KB, in cache and below malloc's default mmap threshold, so
# the blocks of one build, and of the next, reuse memory already mapped
_BLOCK = 1 << 14


class FiniteField:
    """F_{p^m} presented as F_p[X]/(modulus), modulus monic irreducible.

    Instances are immutable and compare by (p, m, modulus), so two
    independently created descriptions of the same field interoperate.
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not is_odd_prime(p):
            raise CompositeP(f"p = {p} is not an odd prime")
        if m < 1:
            raise GFError(f"extension degree must be positive, got {m}")
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {m}")
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} factors over F_{p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._caches: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"

    def cached(self, key, build):
        """Derived data of this field: build() on the first use of key, then kept with the field."""
        val = self._caches.get(key)
        if val is None:
            val = self._caches[key] = build()
        return val

    # -- index <-> coefficient encoding (index = sum c_i p^i) --

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            idx, c = divmod(idx, p)
            out.append(c)
        return tuple(out)

    def index_of(self, coeffs) -> int:
        idx = 0
        for c in reversed(tuple(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    # -- element construction --

    def element(self, coeffs) -> "FFElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise GFError(f"need {self.m} coefficients, got {len(coeffs)}")
        return FFElement(self, coeffs)

    def from_index(self, idx: int) -> "FFElement":
        return FFElement(self, None, int(idx) % self.q)

    def scalar(self, c: int) -> "FFElement":
        """Embed c in F_p as c * 1."""
        return self.element((c % self.p,) + (0,) * (self.m - 1))

    def zero(self) -> "FFElement":
        return self.scalar(0)

    def one(self) -> "FFElement":
        return self.scalar(1)

    def gen(self) -> "FFElement":
        """The modulus root (the element X), or 1 for m = 1."""
        if self.m == 1:
            return self.one()
        return self.element((0, 1) + (0,) * (self.m - 2))

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    # -- the digit-array core --

    def digits(self) -> np.ndarray:
        """(q, m) int16 array whose row i holds the coefficients of the element of index i."""

        def build():
            idx = np.arange(self.q, dtype=np.int64)
            cols = [idx // self.p**k % self.p for k in range(self.m)]
            return np.stack(cols, axis=1).astype(np.int16)

        return self.cached("digits", build)

    def indices_of(self, rows) -> np.ndarray:
        """Indices of the elements whose coefficients are the (reduced) digit rows."""
        return np.asarray(rows, dtype=np.int64) @ (self.p ** np.arange(self.m, dtype=np.int64))

    def _powers_of_x(self) -> np.ndarray:
        """(2m - 1, m) digit rows of X^k mod the modulus, for k < 2m - 1."""

        def build():
            rows = [(1,) + (0,) * (self.m - 1)]
            for _ in range(2 * self.m - 2):
                rows.append(_poly_mulmod(rows[-1], (0, 1), self.modulus, self.p))
            return np.array(rows, dtype=np.int64)

        return self.cached("x_powers", build)

    def mulmod(self, a, b) -> np.ndarray:
        """Products of two broadcastable (..., m) digit arrays, row by row."""
        m = self.m
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        prod = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (2 * m - 1,), dtype=np.int64)
        for i in range(m):
            prod[..., i : i + m] += a[..., i : i + 1] * b
        return (prod % self.p) @ self._powers_of_x() % self.p

    def frob_matrix(self, k: int = 1) -> np.ndarray:
        """m x m matrix of x -> x^{p^k} on digit rows (x F): row i holds (X^i)^{p^k}."""
        k %= self.m

        def build():
            if k == 0:
                return np.eye(self.m, dtype=np.int64)
            if k > 1:
                return self.frob_matrix(k - 1) @ self.frob_matrix(1) % self.p
            units = np.eye(self.m, dtype=np.int64).tolist()
            rows = [_poly_powmod(tuple(e), self.p, self.modulus, self.p) for e in units]
            return np.array(rows, dtype=np.int64)

        return self.cached(("frob", k), build)

    def _trace_functional(self) -> tuple[int, ...]:
        """Tr(X^i) for i < m: the trace of multiplication by X^i, whose rows are X^{i+j}."""

        def build():
            xk = self._powers_of_x()
            m = self.m
            return tuple(int(sum(xk[i + j, j] for j in range(m)) % self.p) for i in range(m))

        return self.cached("trace_functional", build)

    def _gram(self) -> np.ndarray:
        """Trace-form Gram matrix G[i, j] = Tr(X^{i+j}): Tr(xy) = x G y^T on digit rows."""

        def build():
            tk = self._powers_of_x() @ np.array(self._trace_functional()) % self.p
            i = np.arange(self.m)
            return tk[i[:, None] + i[None, :]]

        return self.cached("gram", build)

    def trace_forms(self, indices) -> np.ndarray:
        """Row r holds Tr(x y) for the element x of index indices[r] and every index y (int64)."""
        d = self.digits()
        return d[indices] @ self._gram() @ d.T % self.p

    def lex_rank(self, rows) -> np.ndarray:
        """Position of each digit row in the lexicographic order of coefficient tuples."""
        return self.indices_of(np.asarray(rows)[..., ::-1])

    # -- whole-field tables, each built once per field --

    def lex_order(self) -> np.ndarray:
        """Indices of all elements sorted lexicographically by coefficient tuple."""
        return self.cached("lex_order", lambda: np.argsort(self.lex_rank(self.digits())))

    def trace_table(self) -> np.ndarray:
        """Tr(x) for every index x (int16)."""
        return self.cached(
            "trace_vec",
            lambda: (self.digits() @ np.array(self._trace_functional()) % self.p).astype(np.int16),
        )

    def frob_table(self) -> np.ndarray:
        """x^p for every index x, as an index vector."""
        return self.cached(
            "frob_vec", lambda: self.indices_of(self.digits() @ self.frob_matrix(1) % self.p)
        )

    def eta_table(self) -> np.ndarray:
        """Quadratic character of every index (int8): the nonzero squares get +1."""

        def build():
            eta = np.full(self.q, -1, dtype=np.int8)
            eta[self.power_table(2)] = 1
            eta[0] = 0
            return eta

        return self.cached("eta_vec", build)

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every index x, as an int32 index vector (0^0 = 1).

        Built from the base-p digits of e = sum e_k p^k as the product of the
        (x^{e_k})^{p^k}: each p^k-th power is the digit rows times
        `frob_matrix(k)`, and each x^d, d < p, is assembled once per distinct
        digit from the squares x^{2^j}.  So x^{p^u + 1} costs one `mulmod`
        and x^2 one square.
        """
        if e < 0:
            raise GFError(f"power_table needs a nonnegative exponent, got {e}")

        def build():
            squares = [self.digits()]  # x^(2^j), shared by every digit
            of_digit = {}  # x^d per digit value d in use
            out = None
            rest, k = e, 0
            while rest:
                rest, d = divmod(rest, self.p)
                if d:
                    if d not in of_digit:
                        while len(squares) < d.bit_length():
                            squares.append(self.mulmod(squares[-1], squares[-1]))
                        bits = [sq for j, sq in enumerate(squares) if d >> j & 1]
                        of_digit[d] = reduce(self.mulmod, bits)
                    term = of_digit[d] @ self.frob_matrix(k) % self.p
                    out = term if out is None else self.mulmod(out, term)
                k += 1
            if out is None:  # e = 0
                return np.ones(self.q, dtype=np.int32)
            return self.indices_of(out).astype(np.int32)

        return self.cached(("pow", e), build)

    def trace_of_products(self) -> np.ndarray:
        """(q, q) table of Tr(x*y), built as D G D^T mod p in row blocks.

        Stored as int8, or as int16 for p > 127, where int8 would wrap.  No
        library path reads it: the class histograms of `codes` work from the
        Gram matrix.  Only the benchmark and the tests build it.
        """

        def build():
            out = np.empty((self.q, self.q), dtype=np.int8 if self.p <= 127 else np.int16)
            step = max(1, _BLOCK // self.q)
            for lo in range(0, self.q, step):
                out[lo : lo + step] = self.trace_forms(np.arange(lo, min(lo + step, self.q)))
            return out

        return self.cached("trace_prod", build)

    def mul_table(self) -> np.ndarray:
        """(q, q) int32 index multiplication table, built in row blocks.

        No library path reads it; only the benchmark and the tests build it.
        """

        def build():
            d = self.digits()
            out = np.empty((self.q, self.q), dtype=np.int32)
            step = max(1, _BLOCK // (self.q * (2 * self.m - 1)))
            for lo in range(0, self.q, step):
                out[lo : lo + step] = self.indices_of(self.mulmod(d[lo : lo + step, None], d[None]))
            return out

        return self.cached("mul_table", build)


def field_create(p: int, m: int, modulus=None) -> FiniteField:
    """Create F_{p^m}; modulus defaults to the lex-smallest monic irreducible."""
    return FiniteField(p, m, modulus)


@lru_cache(maxsize=None)
def cached_field(p: int, m: int, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """Shared field instance per (p, m, modulus), so lookup tables are built once."""
    return FiniteField(p, m, modulus)


class FFElement:
    """An element of a FiniteField, held as its index or its reduced coefficient vector.

    Each element keeps the representation it was built from (the index from
    `from_index`, the coefficients from arithmetic and `element`) and derives
    the other on first read, then keeps it too.
    """

    __slots__ = ("field", "_coeffs", "_index")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...] | None = None, index: int | None = None):
        self.field = field
        self._coeffs = coeffs
        self._index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = self.field.coeffs_of(self._index)
        return self._coeffs

    @property
    def index(self) -> int:
        if self._index is None:
            self._index = self.field.index_of(self._coeffs)
        return self._index

    def _check(self, other):
        if not isinstance(other, FFElement):
            raise TypeError(f"expected FFElement, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = _poly_mulmod(self.coeffs, other.coeffs, f.modulus, f.p)
        return FFElement(f, prod)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        f = self.field
        return FFElement(f, _poly_powmod(self.coeffs, e, f.modulus, f.p))

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.field.q - 2)

    def frobenius_iterate(self, k: int) -> "FFElement":
        """x -> x^{p^k}, k reduced mod m, through the Frobenius matrix."""
        f = self.field
        return FFElement(f, tuple((np.array(self.coeffs) @ f.frob_matrix(k) % f.p).tolist()))

    def trace(self) -> int:
        """Tr(x) = sum of x^{p^i}, returned as a value in {0, ..., p-1}."""
        f = self.field
        return sum(c * t for c, t in zip(self.coeffs, f._trace_functional())) % f.p

    def eta(self) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
        if self.is_zero():
            return 0
        f = self.field
        half = self ** ((f.q - 1) // 2)  # Euler's criterion
        return 1 if half.coeffs == (1,) + (0,) * (f.m - 1) else -1

    def is_zero(self) -> bool:
        if self._index is not None:
            return self._index == 0
        return not any(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, FFElement) or self.field != other.field:
            return False
        if self._index is not None and other._index is not None:
            return self._index == other._index
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.index))

    def __repr__(self):
        return f"FFElement({self.field!r}, {self.coeffs})"


def trace(x: FFElement) -> int:
    return x.trace()


def eta(x: FFElement) -> int:
    return x.eta()


# ---------------------------------------------------------------------------
# F_p-linear operators (linearized polynomials as matrices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinOperator:
    """An F_p-linear map on coefficient vectors, stored as an m x m matrix (rows)."""

    field: FiniteField
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, x: FFElement) -> FFElement:
        if x.field != self.field:
            raise FieldMismatch("operand from a different field")
        p = self.field.p
        out = tuple(
            sum(r * c for r, c in zip(row, x.coeffs)) % p for row in self.matrix
        )
        return FFElement(self.field, out)

    @cached_property
    def _reduced(self):
        """(reduced rows, pivot columns, row transform) of the matrix, from _eliminate."""
        return _eliminate(self.matrix, self.field.p)

    def kernel_dim(self) -> int:
        return self.field.m - len(self._reduced[1])

    def solve_rows(self, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Designated particular solutions of op(X) = r for every digit row r of rhs at once.

        Returns a boolean per row (solvable or not) and the (N, m) digit rows of
        the solution whose free coordinates are zero (zero where unsolvable).
        """
        _, pivots, transform = self._reduced
        rank = len(pivots)
        y = np.asarray(rhs, dtype=np.int64) @ np.array(transform, dtype=np.int64).T % self.field.p
        out = np.zeros_like(y)
        out[:, pivots] = y[:, :rank]
        return ~y[:, rank:].any(axis=1), out


def linearized_operator(field: FiniteField, a: FFElement, u: int) -> LinOperator:
    """Matrix of X -> a^{p^u} X^{p^{2u}} + a X on the power basis."""
    if a.field != field:
        raise FieldMismatch("a must lie in the given field")
    apu = a.frobenius_iterate(u)
    cols = []
    for i in range(field.m):
        e = field.element(tuple(1 if j == i else 0 for j in range(field.m)))
        img = apu * e.frobenius_iterate(2 * u) + a * e
        cols.append(img.coeffs)
    matrix = tuple(tuple(cols[c][r] for c in range(field.m)) for r in range(field.m))
    return LinOperator(field, matrix)


@dataclass
class SolutionSet:
    """Solutions of op(X) = rhs: none, a unique point, or an affine subspace."""

    kind: str  # "none" | "unique" | "affine"
    particular: FFElement | None
    basis: list[FFElement]

    @property
    def size(self) -> int:
        if self.kind == "none":
            return 0
        return self.particular.field.p ** len(self.basis)

    def solutions(self):
        if self.kind == "none":
            return
        f = self.particular.field
        p = f.p
        dim = len(self.basis)
        for counter in range(p**dim):
            x = self.particular
            c = counter
            for b in self.basis:
                c, r = divmod(c, p)
                if r:
                    x = x + f.scalar(r) * b
            yield x

    def __contains__(self, x: FFElement) -> bool:
        return any(x == s for s in self.solutions())


def _eliminate(rows, p):
    """Gauss-Jordan elimination over F_p of the n x k matrix given by its rows.

    Returns (reduced, pivots, transform): the reduced row echelon form, its
    pivot columns, and the invertible n x n row transform E with
    E * rows = reduced (mod p).
    """
    n = len(rows)
    k = len(rows[0]) if rows else 0
    aug = [[v % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots = []
    for c in range(k):
        rank = len(pivots)
        piv = next((r for r in range(rank, n) if aug[r][c]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][c], p - 2, p)
        aug[rank] = [(v * inv) % p for v in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][c]:
                fac = aug[r][c]
                aug[r] = [(v - fac * w) % p for v, w in zip(aug[r], aug[rank])]
        pivots.append(c)
    return [row[:k] for row in aug], pivots, [row[k:] for row in aug]


def solve_linear(op: LinOperator, rhs: FFElement) -> SolutionSet:
    """All solutions of op(X) = rhs by Gaussian elimination over F_p."""
    f = op.field
    if rhs.field != f:
        raise FieldMismatch("rhs from a different field")
    p, m = f.p, f.m
    reduced, pivots, transform = op._reduced
    y = [sum(t * c for t, c in zip(row, rhs.coeffs)) % p for row in transform]
    if any(y[len(pivots) :]):
        return SolutionSet("none", None, [])
    part = [0] * m
    for r, c in enumerate(pivots):
        part[c] = y[r]
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [0] * m
        vec[fc] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-reduced[r][fc]) % p
        basis.append(f.element(tuple(vec)))
    particular = f.element(tuple(part))
    kind = "unique" if not basis else "affine"
    return SolutionSet(kind, particular, basis)
