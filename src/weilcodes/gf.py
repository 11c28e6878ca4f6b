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
  of Tr(xy) is D G D^T mod p for the digit array D of all elements;
* Tr(x^{p^u + 1}) is the quadratic form x F_u G x^T on the digit row x, with
  F_u the Frobenius matrix of x -> x^{p^u}, so a level table needs no power;
  with M_a the matrix of y -> a y, Tr(a x^{p^u + 1} + b x) is the form
  x F_u M_a G x^T + x G b^T, so neither does an exhaustive character sum;
* the histograms of Tr(a z) over classes of members z, for every a, are a
  Walsh-Hadamard butterfly on the members' rows z G.

A single element (`FFElement`) keeps the index or the coefficients it was
built from and derives the other on first read, so `from_index` and `.index`
are O(1).  Its products and powers work on the coefficients with one
polynomial kernel in plain Python integers, faster than a one-row array
product: a product takes each coefficient mod p once, from the top degree
down; a square adds each cross term once; a power is left-to-right
square-and-multiply, and a multiply by X shifts the square.  Its Frobenius
images are one product with a Frobenius matrix, its trace one with the trace
functional, and its inverse and quadratic character go through the norm
N(x) = prod_k x^{p^k}, so neither raises x to a power.
The irreducibility test that checks every modulus runs on it.  It is
Ben-Or's: f of degree m is irreducible iff gcd(X^{p^k} - X, f) = 1 for
k = 1 .. m // 2.  That is exact, because a reducible f has an irreducible
factor of degree d <= m / 2, which divides X^{p^d} - X; the test stops at
the first k that finds one, and asks only whether each gcd is a unit.
Derived data is kept in each field's own cache, so it is freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def eta1(p: int, x: int) -> int:
    """Legendre symbol of x mod p, with eta1(0) = 0."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for an integer array, as x - (x // p) p, in a new array.

    numpy divides an integer array by a scalar through a precomputed divisor,
    but its % by a scalar is several times slower; both round toward minus
    infinity, so the values agree, negative entries included.
    """
    r = x // p
    r *= p
    np.subtract(x, r, out=r)
    return r


# ---------------------------------------------------------------------------
# dense polynomials over F_p, little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _reducer(mod):
    """(m, nonzero low terms (k, f_k) of the monic f of degree m): what a reduction mod f reads, built once per f."""
    m = len(mod) - 1
    return m, [(k, c) for k, c in enumerate(mod[:m]) if c]


def _poly_reduce(prod, red, p):
    """prod mod f as an m-tuple: from the top down, each coefficient is taken mod p once and cancelled."""
    m, terms = red
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d] % p
        if c:
            for k, fk in terms:
                prod[d - m + k] -= c * fk
    return tuple([c % p for c in prod[:m]])


def _poly_mulmod(a, b, red, p, shift=0):
    """a b X^shift mod f, summed in plain integers and reduced once; a square (a is b) adds a_i a_j once, doubled."""
    n = len(a)
    prod = [0] * (2 * n - 1 + shift)
    for i, ai in enumerate(a):
        if ai and a is b:
            prod[2 * i + shift] += ai * ai
            ai += ai
            for j in range(i + 1, n):
                prod[i + j + shift] += ai * a[j]
        elif ai:
            for j, bj in enumerate(b, i + shift):
                prod[j] += ai * bj
    return _poly_reduce(prod, red, p)


def _poly_powmod(base, e, red, p):
    """base^e mod f by left-to-right square-and-multiply; for base X a multiply shifts the square's product."""
    m = red[0]
    is_x = m > 1 and base == (0, 1) + (0,) * (m - 2)
    result = base if e else (1,) + (0,) * (m - 1)
    for bit in bin(e)[3:]:
        result = _poly_mulmod(result, result, red, p, is_x and bit == "1")
        if bit == "1" and not is_x:
            result = _poly_mulmod(result, base, red, p)
    return result


def _shift_rows(a, red, p):
    """Digit rows of X^i a mod f for i < m: the rows of multiplication by a, each a shift and one reduction step."""
    rows = [a]
    for _ in range(len(a) - 1):
        rows.append(_poly_reduce([0, *rows[-1]], red, p))
    return rows


def _row_times(v, rows):
    """The row vector v times the matrix given by its rows, in plain integers, not reduced mod p."""
    out = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return out


def _is_coprime(a, b, p):
    """Whether gcd(a, b) is a unit, for lists over F_p with b's top coefficient nonzero.

    Euclid in place on both lists: b <- b mod a, the remainder taken mod p
    once, then the two swap, until a is zero or a nonzero constant.
    """
    while True:
        while a and not a[-1]:
            a.pop()
        if len(a) < 2:
            return len(a) == 1
        inv, n = pow(a[-1], -1, p), len(a) - 1
        for d in range(len(b) - 1 - n, -1, -1):
            c = b.pop() * inv % p
            for k in range(n):
                b[d + k] -= c * a[k]
        a, b = [c % p for c in b], a


def is_irreducible(modulus, p: int) -> bool:
    """Ben-Or's test: gcd(X^{p^k} - X, f) = 1 for every k <= m / 2.

    Exact, not probabilistic: a reducible monic f of degree m has an
    irreducible factor g of degree d <= m / 2 (a repeated factor included),
    and g divides X^{p^d} - X, whose roots are all of F_{p^d}; an
    irreducible f has no root in F_{p^k} for k < m.  The test stops at the
    first k with a nontrivial gcd, so most reducible f cost one p-th power of
    X and one unit-gcd check (Ben-Or 1981; Gao & Panario, FoCM 1997).
    """
    mod = tuple([c % p for c in modulus])
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    if m == 1:
        return True
    if mod[0] == 0:  # X divides it
        return False
    h, red = (0, 1) + (0,) * (m - 2), _reducer(mod)
    for _ in range(m // 2):
        h = _poly_powmod(h, p, red, p)  # X^{p^k} mod f
        if not _is_coprime([h[0], (h[1] - 1) % p, *h[2:]], list(mod), p):
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m (low-degree coeffs compared first)."""
    if m == 1:
        return (0, 1)  # X itself: F_p presented with the degree-1 convention
    # X divides every candidate with c_0 = 0, so the odometer starts at c_0 = 1
    lower = [1] + [0] * (m - 1)
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
        # digits and trace values lie in 0 .. p - 1: int16 while they fit, int32 from p > 2^15
        self.digit_dtype = np.int16 if p < 1 << 15 else np.int32
        self._reduction = _reducer(modulus)
        self._hash = hash((p, m, modulus))
        self._caches: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return self._hash

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
        if type(idx) is not int:  # a numpy integer, say
            idx = int(idx)
        return FFElement(self, None, idx % self.q)

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
        """(q, m) `digit_dtype` array whose row i holds the coefficients of the element of index i."""

        def build():
            # column by column into the narrow result: no (q, m) int64 temporary
            idx = np.arange(self.q, dtype=np.int64)
            out = np.empty((self.q, self.m), dtype=self.digit_dtype)
            for k in range(self.m):
                out[:, k] = mod_p(idx, self.p)
                idx //= self.p
            return out

        return self.cached("digits", build)

    def indices_of(self, rows) -> np.ndarray:
        """Indices of the elements whose coefficients are the (reduced) digit rows."""
        return np.asarray(rows, dtype=np.int64) @ (self.p ** np.arange(self.m, dtype=np.int64))

    def _powers_of_x(self) -> np.ndarray:
        """(2m - 1, m) digit rows of X^k mod the modulus, for k < 2m - 1."""

        def build():
            rows = [(1,) + (0,) * (self.m - 1)]
            for _ in range(2 * self.m - 2):  # times X: a shift and one reduction step
                rows.append(_poly_reduce([0, *rows[-1]], self._reduction, self.p))
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
        return mod_p(mod_p(prod, self.p) @ self._powers_of_x(), self.p)

    def frob_matrix(self, k: int = 1) -> np.ndarray:
        """m x m matrix of x -> x^{p^k} on digit rows (x F): row i holds (X^i)^{p^k}."""
        k %= self.m

        def build():
            if k == 0:
                return np.eye(self.m, dtype=np.int64)
            if k > 1:
                return self.frob_matrix(k - 1) @ self.frob_matrix(1) % self.p
            # (X^i)^p = (X^p)^i: one powering of X, then a product per row
            xp = _poly_powmod(self.gen().coeffs, self.p, self._reduction, self.p)
            rows = [(1,) + (0,) * (self.m - 1)]
            for _ in range(self.m - 1):
                rows.append(_poly_mulmod(rows[-1], xp, self._reduction, self.p))
            return np.array(rows, dtype=np.int64)

        return self.cached(("frob", k), build)

    def _frob_rows(self, k: int) -> tuple[tuple[int, ...], ...]:
        """`frob_matrix(k)` as row tuples, for single elements in plain integers; a kept one costs one cache read."""
        key = ("frob_rows", k % self.m)
        rows = self._caches.get(key)
        if rows is None:
            rows = self._caches[key] = tuple(map(tuple, self.frob_matrix(k).tolist()))
        return rows

    def _trace_functional(self) -> tuple[int, ...]:
        """Tr(X^i) for i < m: the trace of multiplication by X^i, whose rows are X^{i+j}."""

        def build():
            i = np.arange(self.m)
            return tuple((self._powers_of_x()[i[:, None] + i, i].sum(axis=1) % self.p).tolist())

        return self.cached("trace_functional", build)

    def _gram(self) -> np.ndarray:
        """Trace-form Gram matrix G[i, j] = Tr(X^{i+j}): Tr(xy) = x G y^T on digit rows."""

        def build():
            tk = self._powers_of_x() @ np.array(self._trace_functional()) % self.p
            i = np.arange(self.m)
            return tk[i[:, None] + i[None, :]]

        return self.cached("gram", build)

    def _times_gram(self) -> np.ndarray:
        """(m, m, m) array W with W @ a = M_a G for the digit row a: W[i, k, j] = (X^{i+j} G)[k].

        M_a, the matrix of y -> a y, has row i = a X^i = sum_j a_j X^{i+j}, so
        (M_a G)[i, k] = sum_j a_j W[i, k, j]; its entries are at most
        m (p - 1)^2, not reduced mod p.
        """

        def build():
            i = np.arange(self.m)
            rows = self._powers_of_x() @ self._gram() % self.p  # X^n G for n < 2m - 1
            return rows[i[:, None] + i].transpose(0, 2, 1).copy()

        return self.cached("times_gram", build)

    def trace_forms(self, indices) -> np.ndarray:
        """Row r holds Tr(x y) for the element x of index indices[r] and every index y (int64)."""
        d = self.digits()
        return mod_p(d[indices] @ self._gram() @ d.T, self.p)

    def class_histograms(self, members, labels, n_classes: int) -> np.ndarray:
        """(q, n_classes * p) counts: entry [a, c p + t] is #{members z of class c : Tr(a z) = t}.

        With y = z G mod p the trace-form coordinates of z (G from `_gram`),
        Tr(a z) = sum_k a_k y_k over the digits a_k of a.  The low g digits
        of a are counted directly (`_count_low_digits`).  Each other digit k
        is one butterfly step of the generalized Walsh-Hadamard transform
        (Chrestenson 1955) kept in histogram form,

            new[..., a_k, ..., t] = sum_{y_k} old[..., y_k, ..., t - a_k y_k mod p],

        which turns the axis of y_k into the axis of a_k.  g comes from
        `histogram_split`.  The counts are exact integers; no q x q table is read.
        """
        p, m, q = self.p, self.m, self.q
        g, _ = histogram_split(len(members), n_classes, p, m)
        hist = _count_low_digits(mod_p(self.digits()[members] @ self._gram(), p), labels, n_classes, p, g)
        for k in range(g, m):  # axes (y_{m-1} .. y_{k+1}, y_k, rest, t)
            old = hist.reshape(p ** (m - 1 - k), p, p**k * n_classes, p)
            wrap = np.concatenate([old, old], axis=-1)  # wrap[..., p - s : 2p - s] is t - s mod p
            hist = np.empty_like(old)
            hist[:, 0] = old.sum(axis=1)
            for a in range(1, p):
                acc = hist[:, a]
                acc[...] = old[:, 0]
                for yk in range(1, p):
                    s = a * yk % p
                    acc += wrap[:, yk, :, p - s : 2 * p - s]
        return hist.reshape(q, n_classes * p)

    def leading(self) -> np.ndarray:
        """lead[x]: the first nonzero coefficient of x, low degree first (1 for x = 0), for every index x.

        x / lead[x] leads with 1: it is the element of the scaling orbit
        F_p* x whose first nonzero coefficient is 1.
        """

        def build():
            d = self.digits()
            lead = d[np.arange(self.q), (d != 0).argmax(axis=1)]
            lead[0] = 1
            return lead

        return self.cached("leading", build)

    def lex_rank(self, rows) -> np.ndarray:
        """Position of each digit row in the lexicographic order of coefficient tuples."""
        return self.indices_of(np.asarray(rows)[..., ::-1])

    # -- whole-field tables, each built once per field --

    def lex_order(self) -> np.ndarray:
        """Indices of all elements sorted lexicographically by coefficient tuple."""
        return self.cached("lex_order", lambda: np.argsort(self.lex_rank(self.digits())))

    def trace_table(self) -> np.ndarray:
        """Tr(x) for every index x (`digit_dtype`).

        No library path reads it: a single trace is the trace functional on
        the coefficients, and the level tables are `quadratic_trace`.  Only
        the benchmark and the tests build it.
        """
        return self.cached(
            "trace_vec",
            lambda: mod_p(self.digits() @ np.array(self._trace_functional()), self.p).astype(self.digit_dtype),
        )

    def frob_table(self) -> np.ndarray:
        """x^p for every index x, as an index vector."""
        return self.cached(
            "frob_vec", lambda: self.indices_of(mod_p(self.digits() @ self.frob_matrix(1), self.p))
        )

    def eta_table(self) -> np.ndarray:
        """Quadratic character of every index (int8): the nonzero squares get +1.

        No library path reads it: a single character goes through the norm
        (`FFElement.eta`).  Only the benchmark and the tests build it.
        """

        def build():
            eta = np.full(self.q, -1, dtype=np.int8)
            eta[self.power_table(2)] = 1
            eta[0] = 0
            return eta

        return self.cached("eta_vec", build)

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every index x, as an int32 index vector (0^0 = 1).

        Built from the base-p digits of e = sum e_k p^k as the product of the
        (x^{p^k})^{e_k}: each p^k-th power is the digit rows times
        `frob_matrix(k)`, multiplied in e_k times with `mulmod`.  So
        x^{p^u + 1} and x^2 cost one `mulmod` each.  The rows go in blocks,
        each `mulmod` product holding at most _BLOCK entries.  No library
        path reads it: the level tables and the exhaustive character sums are
        digit forms (`quadratic_trace`, `trace_values`).  Only `eta_table`,
        the benchmark and the tests build it.
        """
        if e < 0:
            raise GFError(f"power_table needs a nonnegative exponent, got {e}")

        def powers(rows):
            out = None
            rest, k = e, 0
            while rest:
                rest, d = divmod(rest, self.p)
                if d:
                    term = mod_p(rows @ self.frob_matrix(k), self.p)
                    for _ in range(d):
                        out = term if out is None else self.mulmod(out, term)
                k += 1
            return self.indices_of(out)

        def build():
            if e == 0:
                return np.ones(self.q, dtype=np.int32)
            digits = self.digits()
            out = np.empty(self.q, dtype=np.int32)
            step = max(1, _BLOCK // (2 * self.m - 1))
            for lo in range(0, self.q, step):
                out[lo : lo + step] = powers(digits[lo : lo + step])
            return out

        return self.cached(("pow", e), build)

    def _form_values(self, form: np.ndarray, lin: np.ndarray | None, dtype) -> np.ndarray:
        """x form x^T + x lin mod p for the digit row x of every index, as `dtype`.

        Each block of _BLOCK // m digit rows is one product with form and one
        row sum of its entrywise product with the rows, taken as a product
        with a vector of ones (faster than a reduction along the rows), plus
        one product with lin.  The block runs in float64, whose matrix product is several
        times faster than numpy's integer one, and is exact while every value
        stays below 2^53.  With the entries of form and lin in 0 .. p - 1, a
        value is at most m^2 (p - 1)^3 + m (p - 1)^2.  Where that bound passes
        2^53 (from p = 208 067 at m = 1), the products with form are taken
        mod p first, which brings it to 2 m (p - 1)^2; where that passes 2^53
        too, no exact value is formed and GFError is raised.
        """
        p, m = self.p, self.m
        wide = m * m * (p - 1) ** 3 + m * (p - 1) ** 2 >= 1 << 53
        if wide and 2 * m * (p - 1) ** 2 >= 1 << 53:
            raise GFError(f"digit forms over F_{p}^{m} pass float64's exact range")
        digits, form = self.digits(), form.astype(np.float64)
        ones = np.ones(m)
        out = np.empty(self.q, dtype=dtype)
        step = max(1, _BLOCK // m)
        for lo in range(0, self.q, step):
            rows = digits[lo : lo + step].astype(np.float64)
            prod = rows @ form
            if wide:
                np.fmod(prod, p, out=prod)
            prod *= rows
            vals = prod @ ones
            if lin is not None:
                vals += rows @ lin  # as a product: a broadcast add along rows of m entries is slower
            out[lo : lo + step] = mod_p(vals.astype(np.int64), p)
        return out

    def trace_values(self, u: int, a: "FFElement", b: "FFElement") -> np.ndarray:
        """Tr(a x^{p^u + 1} + b x) for every index x (int64); u counts mod m.

        The digit row of x^{p^u} is x F (F = `frob_matrix(u)`), that of y a is
        y M_a (row i of M_a is a X^i) and Tr(y x) is y G x^T (G from `_gram`),
        so the value is the digit form x B x^T + x l with B = F M_a G and
        l = G b^T, both mod p (M_a G from `_times_gram`; `_form_values`).  It
        forms no element power and keeps nothing: a and b change from call to
        call.
        """
        p = self.p
        form = self.frob_matrix(u) @ (self._times_gram() @ a.coeffs) % p
        return self._form_values(form, (self._gram() @ b.coeffs % p).astype(np.float64), np.int64)

    def quadratic_trace(self, u: int) -> np.ndarray:
        """Tr(x^{p^u + 1}) for every index x (`digit_dtype`), Tr(x^2) at u = 0; u counts mod m, as x^{p^m} = x.

        The digit row of x^{p^u} is x F (F = `frob_matrix(u)`) and Tr(y x) is
        y G x^T (G from `_gram`), so Tr(x^{p^u} x) is the digit form x B x^T
        with B = F G mod p (`_form_values`, the a = 1, b = 0 case of
        `trace_values`); no element power, power table or trace table is
        formed.
        """
        u %= self.m
        return self.cached(
            ("quadratic_trace", u),
            lambda: self._form_values(self.frob_matrix(u) @ self._gram() % self.p, None, self.digit_dtype),
        )

    def trace_of_products(self) -> np.ndarray:
        """(q, q) table of Tr(x*y), built as D G D^T mod p in row blocks.

        Stored as int8, or as `digit_dtype` for p > 127, where int8 would wrap.  No
        library path reads it: `class_histograms` works from the Gram matrix.
        Only the benchmark and the tests build it.
        """

        def build():
            out = np.empty((self.q, self.q), dtype=np.int8 if self.p <= 127 else self.digit_dtype)
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


def histogram_split(n: int, n_classes: int, p: int, m: int) -> tuple[int, int]:
    """(g, cost) of `FiniteField.class_histograms` on n members in n_classes classes of F_{p^m}.

    Counting the low g digits of a directly writes n p^g keys; each of the
    other m - g butterfly steps costs n_classes q p^2 additions.  g minimizes
    the sum, which is the cost; g = m is the direct count.
    """
    q = p**m
    cost, g = min((n * p**g + (m - g) * n_classes * q * p * p, g) for g in range(1, m + 1))
    return g, cost


def _count_low_digits(y: np.ndarray, labels, n_classes: int, p: int, g: int) -> np.ndarray:
    """Counts over (y_high, a_low, class, t): one bincount over every (member, a_low).

    y holds the members' trace-form coordinates; a_low = sum_{k < g} a_k p^k
    runs over the low g digits of a, t = sum_{k < g} a_k y_k mod p, and
    y_high = sum_{k >= g} y_k p^(k - g) keeps the digits still to be folded.
    """
    n, m = y.shape
    # t in int16 while the sum fits
    small = np.int16 if g * (p - 1) ** 2 < 2**15 else np.int64
    y_low = y[:, :g].T.astype(small)
    digit = np.arange(p, dtype=small)[:, None]
    t = np.zeros((n, 1), dtype=small)
    for k in range(g):
        t = (y_low[k, :, None, None] * digit + t[:, None, :]).reshape(n, -1)
    t = mod_p(t, p)
    y_high = y[:, g:] @ p ** np.arange(m - g)
    key = ((y_high * p**g * n_classes + labels) * p)[:, None] + np.arange(p**g) * (n_classes * p)
    key += t
    return np.bincount(key.ravel(), minlength=p**m * n_classes * p)


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
        # the same field object is the common case; only copies need the value compare
        if other.field is not self.field and other.field != self.field:
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
        prod = _poly_mulmod(self.coeffs, other.coeffs, f._reduction, f.p)
        return FFElement(f, prod)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        f = self.field
        return FFElement(f, _poly_powmod(self.coeffs, e, f._reduction, f.p))

    def inverse(self) -> "FFElement":
        """x^{-1} = r / N(x) with r = prod_{k=1}^{m-1} x^{p^k}, as x r = N(x) lies in F_p (Itoh & Tsujii 1988).

        m - 1 products and m - 1 Frobenius images, where the power x^{q-2}
        would take about 1.5 log2 q products.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        rest = self.frobenius_iterate(1).frobenius_product(1, f.m - 1)
        scale = pow((self * rest).coeffs[0], -1, f.p)
        return FFElement(f, tuple([c * scale % f.p for c in rest.coeffs]))

    def frobenius_iterate(self, k: int) -> "FFElement":
        """x -> x^{p^k}, k reduced mod m, through the Frobenius matrix."""
        f = self.field
        return FFElement(f, tuple([c % f.p for c in _row_times(self.coeffs, f._frob_rows(k))]))

    def frobenius_product(self, k: int, n: int) -> "FFElement":
        """prod_{j < n} x^{p^{k j}} = x^{sum_j p^{k j}}: n - 1 products, each factor the Frobenius image of the last."""
        if n == 0:
            return self.field.one()
        y = out = self
        for _ in range(n - 1):
            y = y.frobenius_iterate(k)
            out = out * y
        return out

    def norm(self) -> int:
        """N(x) = the product of the m conjugates x^{p^k} = x^{(q-1)/(p-1)}, a value in {0, ..., p-1}."""
        return self.frobenius_product(1, self.field.m).coeffs[0]

    def trace(self) -> int:
        """Tr(x) = sum of x^{p^i}, returned as a value in {0, ..., p-1}."""
        f = self.field
        return sum(c * t for c, t in zip(self.coeffs, f._trace_functional())) % f.p

    def eta(self) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0.

        eta(x) = x^{(q-1)/2} = N(x)^{(p-1)/2} = eta_p(N(x)), as N(x) is
        x^{(q-1)/(p-1)} (Lidl & Niederreiter, Finite Fields, Thm 5.2 and
        section 2.3); N(x) is m - 1 products.
        """
        return eta1(self.field.p, self.norm())

    def is_zero(self) -> bool:
        if self._index is not None:
            return self._index == 0
        return not any(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, FFElement) or (other.field is not self.field and other.field != self.field):
            return False
        if self._index is not None and other._index is not None:
            return self._index == other._index
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal fields hash alike, and the index is the same for either representation
        return hash((self.field._hash, self.index))

    def __repr__(self):
        return f"FFElement({self.field!r}, {self.coeffs})"


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
    def _reduced(self) -> tuple[list[int], np.ndarray]:
        """(pivot columns, row transform as an int64 array) of the matrix, from _eliminate."""
        pivots, transform = _eliminate(self.matrix, self.field.p)
        return pivots, np.array(transform, dtype=np.int64)

    def kernel_dim(self) -> int:
        return self.field.m - len(self._reduced[0])

    def solve_rows(self, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Designated solutions of op(X) = r for every digit row r of rhs at once.

        The designated solution is the one whose free (non-pivot) coordinates
        are zero.  Returns a boolean per row (solvable or not) and the (N, m)
        digit rows of those solutions (zero where unsolvable).
        """
        pivots, transform = self._reduced
        rank = len(pivots)
        y = mod_p(np.asarray(rhs, dtype=np.int64) @ transform.T, self.field.p)
        out = np.zeros_like(y)
        out[:, pivots] = y[:, :rank]
        return ~y[:, rank:].any(axis=1), out


def linearized_operator(field: FiniteField, a: FFElement, u: int) -> LinOperator:
    """Matrix of X -> a^{p^u} X^{p^{2u}} + a X on the power basis."""
    if a.field != field:
        raise FieldMismatch("a must lie in the given field")
    p, red = field.p, field._reduction
    # column i is the image of X^i: (X^i)^{p^{2u}} (row i of frob_matrix(2u)) times the rows of
    # multiplication by a^{p^u}, plus X^i a (row i of multiplication by a)
    times_fa = _shift_rows(a.frobenius_iterate(u).coeffs, red, p)
    images = [
        [(s + t) % p for s, t in zip(_row_times(row, times_fa), xa)]
        for row, xa in zip(field._frob_rows(2 * u), _shift_rows(a.coeffs, red, p))
    ]
    return LinOperator(field, tuple(zip(*images)))


def _eliminate(rows, p):
    """Gauss-Jordan elimination over F_p of the n x k matrix given by its rows.

    Returns (pivots, transform): the pivot columns of the reduced row echelon
    form R, and the invertible n x n row transform E with E * rows = R (mod p).
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
    return pivots, [row[k:] for row in aug]


def solve_linear(op: LinOperator, rhs: FFElement) -> FFElement | None:
    """The designated solution of op(X) = rhs, free coordinates zero; None when unsolvable."""
    if rhs.field != op.field:
        raise FieldMismatch("rhs from a different field")
    solvable, x = op.solve_rows([rhs.coeffs])
    return FFElement(op.field, tuple(x[0].tolist())) if solvable[0] else None
