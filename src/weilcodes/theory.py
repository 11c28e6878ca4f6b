"""Closed-form predictions: lengths, per-codeword symbol counts, class counts,
and complete weight enumerators for every case of the construction.

The case split is (lambda = 0 or not) x (m2/v mod 4 in {odd, 2, 0}) x (parity
of K, equivalently of m1 when m2 is even), eleven cases in all.  Every
formula here has a brute-force counterpart in `codes`/`charsum`; the test
suite holds the two routes equal across a parameter sweep.

Where alternative sign conventions for these case lists are in circulation,
the readings adopted here are the ones the exhaustive oracle confirms; each
such adjudication is pinned by a dedicated test so it cannot silently flip.
See the comments at the dispatch arms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charsum import even_l_power, gamma_table
from .codes import TABLE_DTYPE, CodeSpec, check_table_length, min_weight, we_and_dimension
from .gf import eta1, mod_p


class WrongRegime(Exception):
    """Counting formula applied outside its m2/v regime."""


class UnmatchedCase(Exception):
    """Spec falls outside all theorem hypotheses (internal error: dispatch is total)."""


@dataclass(frozen=True)
class CaseKey:
    """Which of the eleven enumerator cases a spec falls in, and the two numbers every formula of it reads.

    sign is W in {+1, -1}, the even L-power of the theorem: L^{K+1} or L^K
    when m2/v is odd, L^{m1+1} or L^{m1} otherwise.  exponent is the base
    exponent E: (K-3)/2 or (K-2)/2, shifted by v in the m2/v = 0 mod 4 regime.
    """

    m2v_class: str  # "odd" | "2mod4" | "0mod4"
    k_odd: bool  # the parity of m1 too wherever m2/v is even, as m2 is even there
    theorem: int
    sign: int
    exponent: int


# (lambda = 0, m2/v class) -> the theorem for K odd, for K even
_THEOREMS = {
    (True, "odd"): (1, 2), (True, "2mod4"): (1, 3), (True, "0mod4"): (5, 4),
    (False, "odd"): (6, 7), (False, "2mod4"): (8, 9), (False, "0mod4"): (11, 10),
}


def case_of(spec: CodeSpec) -> CaseKey:
    """The case record of spec: its regime, the parity of K, its theorem, and W and E."""
    m2v, K = spec.m2 // spec.v, spec.K
    cls = "odd" if m2v % 2 else "2mod4" if m2v % 4 == 2 else "0mod4"
    k_odd = K % 2 == 1
    thm = _THEOREMS[spec.lam == 0, cls][0 if k_odd else 1]
    e = (K if cls == "odd" else spec.m1) + k_odd
    E = (K - 3) // 2 if k_odd else (K - 2) // 2
    if cls == "0mod4":
        E += spec.v
    return CaseKey(cls, k_odd, thm, even_l_power(spec.p, e), E)


# ---------------------------------------------------------------------------
# lengths (defining-set sizes)
# ---------------------------------------------------------------------------

def predict_length(spec: CodeSpec) -> int:
    """Closed-form |D_lambda|, divided by the orbit size when punctured."""
    p, K = spec.p, spec.K
    key = case_of(spec)
    W, E = key.sign, key.exponent
    if spec.lam == 0:
        if key.k_odd:
            n = p ** (K - 1) - 1
        else:
            n = p ** (K - 1) + (p - 1) * W * p**E - 1
    else:
        if key.k_odd:
            n = p ** (K - 1) - eta1(p, -spec.lam) * W * p ** (E + 1)
        else:
            n = p ** (K - 1) - W * p**E
    if spec.punctured:
        div = _orbit_size(spec)
        assert n % div == 0
        n //= div
    return n


def _orbit_size(spec: CodeSpec) -> int:
    """Size of the orbits of D_lambda that puncturing keeps one point of.

    The orbits are {c x : c in F_p*} for lambda = 0, and {x, -x} otherwise.
    """
    return spec.p - 1 if spec.lam == 0 else 2


# ---------------------------------------------------------------------------
# per-codeword symbol counts (the twelve case families)
# ---------------------------------------------------------------------------

def predicted_keys(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(Tr(a^2/4) per a index, Tr(gamma_b^{p^u+1}) per b index or -1 where gamma_b is missing), from `quadratic_trace`."""
    gam, p = gamma_table(spec.field2, spec.u), spec.p
    ta = mod_p(pow(4, p - 2, p) * spec.field1.quadratic_trace(0).astype(np.int64), p)
    return ta, np.where(gam >= 0, spec.field2.quadratic_trace(spec.u)[gam], -1)


def _compositions(spec: CodeSpec) -> tuple[tuple[int, ...] | None, list[tuple[int, ...]]]:
    """N_{lambda,rho}(a,b) for rho = 0..p-1 for a nonzero pair, per class: (unsolvable, [solvable with T = t]).

    The first is the row of the pairs whose gamma_b is missing, None outside
    the m2/v = 0 mod 4 regime, where every b has one; the list holds the row
    of the solvable class T = t at index t.  The signs are derived once and
    eta read from one list of the p Legendre symbols.  For lambda = 0 the
    origin, which D_0 excludes but the formulas count, is already taken off
    the rho = 0 slot.
    """
    p, K = spec.p, spec.K
    lam = spec.lam
    key = case_of(spec)
    W, E, k_odd = key.sign, key.exponent, key.k_odd
    eta = [eta1(p, x) for x in range(p)]  # eta[x % p] is eta1(p, x)
    base = p ** (K - 2)

    def composition(solvable: bool, t: int | None) -> tuple[int, ...]:
        if lam == 0:
            # (rho = 0 slot, every other slot), origin included
            if not solvable:
                # K odd: flat base; K even: base + (p-1) W p^{E-1} in every slot
                zero = rest = base if k_odd else base + (p - 1) * W * p ** (E - 1)
            elif t == 0:
                zero, rest = base if k_odd else base + (p - 1) * W * p**E, base
            elif k_odd:
                # adopted sign: rho = 0 gets base - eta1(-T)(p-1) W p^E in all three
                # K-odd regimes; the opposite sign in the m2/v-odd regime fails both
                # Pless moments and the direct tally
                s = eta[-t % p] * W
                zero, rest = base - s * (p - 1) * p**E, base + s * p**E
            else:
                zero, rest = base, base + W * p**E
            return (zero - 1,) + (rest,) * (p - 1)
        if not solvable:
            return (base - eta[-lam % p] * W * p**E if k_odd else base - W * p ** (E - 1),) * p
        if t == 0:
            if k_odd:
                return (base - eta[-lam % p] * W * p ** (E + 1),) + (base,) * (p - 1)
            # adopted sign: -W in every even-K regime; +W in the 2mod4/m1-even case
            # breaks the column-sum law (a direct tally of the [30,4,18] code gives
            # composition (12,9,9), not (6,9,9))
            return (base - W * p**E,) + (base,) * (p - 1)
        if k_odd:
            s = eta[-t % p] * W
            return tuple(base - s * (p - 1) * p**E if (rho * rho - 4 * lam * t) % p == 0 else base + s * p**E
                         for rho in range(p))
        return tuple(base + eta[(rho * rho - 4 * lam * t) % p] * W * p**E for rho in range(p))

    unsolvable = composition(False, None) if key.m2v_class == "0mod4" else None
    return unsolvable, [composition(True, t) for t in range(p)]


# ---------------------------------------------------------------------------
# class counts
# ---------------------------------------------------------------------------

def count_A_tilde(spec: CodeSpec, t: int) -> int:
    """#{(a,b) : T(a,b) = t} for the always-solvable regimes (m2/v odd or 2 mod 4)."""
    key = case_of(spec)
    if key.m2v_class == "0mod4":
        raise WrongRegime("A-tilde requires m2/v odd or 2 mod 4")
    p, K, W = spec.p, spec.K, key.sign
    t %= p
    if key.k_odd:
        if t == 0:
            return p ** (K - 1)
        return p ** (K - 1) - eta1(p, -t) * W * p ** ((K - 1) // 2)
    if t == 0:
        return p ** (K - 1) + (p - 1) * W * p ** ((K - 2) // 2)
    # even-K, 2mod4 arm: the count carries L^{m1}, not L^K (only the former
    # partitions the pair space to p^K)
    return p ** (K - 1) - W * p ** ((K - 2) // 2)


def count_B(spec: CodeSpec) -> int:
    """#{b : X^{p^{2u}} + X = -b^{p^u} is solvable} = p^{m2 - 2v} in the 0 mod 4 regime."""
    if case_of(spec).m2v_class != "0mod4":
        raise WrongRegime("B is only a proper subset when m2/v = 0 mod 4")
    return spec.p ** (spec.m2 - 2 * spec.v)


def count_A_bar(spec: CodeSpec, t: int) -> int:
    """#{(a, b in B) : T(a,b) = t} in the 0 mod 4 regime."""
    key = case_of(spec)
    if key.m2v_class != "0mod4":
        raise WrongRegime("A-bar requires m2/v = 0 mod 4")
    p, K, v, W = spec.p, spec.K, spec.v, key.sign
    t %= p
    if not key.k_odd:
        if t == 0:
            return p ** (K - 2 * v - 1) + W * (p - 1) * p ** ((K - 2) // 2 - v)
        return p ** (K - 2 * v - 1) - W * p ** ((K - 2) // 2 - v)
    if t == 0:
        return p ** (K - 2 * v - 1)
    return p ** (K - 2 * v - 1) - eta1(p, -t) * W * p ** ((K - 1) // 2 - v)


# ---------------------------------------------------------------------------
# full enumerator assembly
# ---------------------------------------------------------------------------

@dataclass
class PredictedEnumerator:
    """Closed-form [n, k] parameters and enumerators, tagged with the theorem case."""

    length: int
    dimension: int
    cwe: dict[tuple[int, ...], int] | None
    we: dict[int, int]
    source: int  # theorem number 1..11

    @property
    def min_distance(self) -> int:
        return min_weight(self.we)


def _classes(spec: CodeSpec):
    """(count, composition) pairs for the nonzero message pairs, by (solvable, T)."""
    p = spec.p
    unsolvable, by_t = _compositions(spec)
    out = []
    if unsolvable is not None:
        out.append((p**spec.m1 * (p**spec.m2 - count_B(spec)), unsolvable))
        counts = [count_A_bar(spec, t) for t in range(p)]
    else:
        counts = [count_A_tilde(spec, t) for t in range(p)]
    for t in range(p):
        c = counts[t] - (1 if t == 0 else 0)  # (0,0) sits in the solvable T=0 class
        out.append((c, by_t[t]))
    return out


def predict_cwe(spec: CodeSpec) -> PredictedEnumerator:
    """Assemble the predicted complete weight enumerator from the case formulas.

    Punctured codes get the predicted weight enumerator and length only: the
    punctured CWE depends on the choice of orbit representatives (flipping a
    representative permutes symbols in one coordinate), so no function of the
    spec parameters can predict it.  Weights scale by the orbit size.
    """
    full = spec.full()
    p = spec.p
    n = predict_length(full)
    cwe: dict[tuple[int, ...], int] = {}

    def add(comp, k):
        if k < 0:
            raise UnmatchedCase(f"negative class count for {spec}")
        if k:
            cwe[comp] = cwe.get(comp, 0) + k

    add((n,) + (0,) * (p - 1), 1)
    for k, comp in _classes(full):
        if sum(comp) != n:
            raise UnmatchedCase(f"composition {comp} does not sum to length {n}")
        add(comp, k)
    if sum(cwe.values()) != p**spec.K:
        raise UnmatchedCase("class counts do not partition the message space")

    we, dim = we_and_dimension([comp[0] for comp in cwe], cwe.values(), n, spec.K, p)
    if dim is None:
        raise UnmatchedCase("zero-composition frequency is not a power of p")

    thm = case_of(spec).theorem
    if not spec.punctured:
        return PredictedEnumerator(n, dim, cwe, we, thm)
    div = _orbit_size(spec)
    swe: dict[int, int] = {}
    for w, k in we.items():
        assert w % div == 0
        swe[w // div] = swe.get(w // div, 0) + k
    return PredictedEnumerator(n // div, dim, None, swe, thm)


def predicted_table(spec: CodeSpec) -> np.ndarray:
    """(q1, q2, p) `TABLE_DTYPE` (int32) array of predicted compositions for every message pair.

    Entry [a, b] of the full code is the `_compositions` row of whether gamma_b exists
    and of T(a, b) = Tr(a^2/4) + Tr(gamma_b^{p^u+1}), read from `predicted_keys`;
    the (0, 0) entry holds the zero codeword's composition.  The per-class
    rows are int32 and gathered into the int32 table, so no int64 array of
    its size is built; a length n >= 2^31 is refused (`check_table_length`)
    before anything is.
    """
    full = spec.full()
    p = spec.p
    n = predict_length(full)
    check_table_length(n)
    ta, tb = predicted_keys(full)
    solvable = tb >= 0
    T = mod_p(ta[:, None] + tb[None, :], p)
    unsolvable, by_t = _compositions(full)
    out = np.take(np.array(by_t, dtype=TABLE_DTYPE), T, axis=0)
    if not solvable.all():
        out[:, ~solvable, :] = np.array(unsolvable, dtype=TABLE_DTYPE)
    out[0, 0] = np.array((n,) + (0,) * (p - 1), dtype=TABLE_DTYPE)
    return out
