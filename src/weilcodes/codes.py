"""Defining sets, codeword generation, and exhaustive weight enumeration.

This module is the ground-truth side of the build: everything here is
computed by scanning the actual point sets and message spaces, never by
formula.  The closed-form predictions live in `theory` and are compared
against these results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf import _BLOCK, CompositeP, FFElement, FieldMismatch, FiniteField, cached_field, is_odd_prime

DEFAULT_BUDGET = 10_000_000

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class BudgetExceeded(Exception):
    """Enumeration would exceed the symbol-evaluation budget."""

    def __init__(self, required, budget, at_least=False):
        needs = f"at least {required}" if at_least else required
        super().__init__(f"enumeration needs {needs} symbol evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class CodeSpec:
    """Parameters (p, m1, m2, u, lambda, punctured) of one code construction.

    mod1/mod2 optionally pin the field presentations; all enumerators are
    representation-independent, so they only matter for reproducing dumps.
    """

    p: int
    m1: int
    m2: int
    u: int
    lam: int
    punctured: bool = False
    mod1: tuple[int, ...] | None = None
    mod2: tuple[int, ...] | None = None

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise CompositeP(f"p = {self.p} is not an odd prime")
        for name in ("m1", "m2", "u"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "lam", self.lam % self.p)
        for name in ("mod1", "mod2"):
            mod = getattr(self, name)
            if mod is not None:
                object.__setattr__(self, name, tuple(int(c) for c in mod))

    @property
    def v(self) -> int:
        return math.gcd(self.m2, self.u)

    @property
    def K(self) -> int:
        return self.m1 + self.m2

    @property
    def s(self) -> int:
        if self.m2 % 2:
            raise ValueError("s = m2/2 is only defined for even m2")
        return self.m2 // 2

    @property
    def field1(self) -> FiniteField:
        return cached_field(self.p, self.m1, self.mod1)

    @property
    def field2(self) -> FiniteField:
        return cached_field(self.p, self.m2, self.mod2)

    def full(self) -> "CodeSpec":
        return CodeSpec(self.p, self.m1, self.m2, self.u, self.lam, False, self.mod1, self.mod2)


class DefiningSet:
    """The realized coordinate set: ordered (x, y) pairs satisfying the trace condition.

    Points are kept as index arrays into the two fields, ordered
    lexicographically on (x-coefficients, y-coefficients) so codeword
    coordinates are reproducible run to run.
    """

    def __init__(self, spec: CodeSpec, xs: np.ndarray, ys: np.ndarray):
        self.spec = spec
        self.xs = xs
        self.ys = ys

    def __len__(self):
        return len(self.xs)

    @cached_property
    def points(self) -> list[tuple[FFElement, FFElement]]:
        f1, f2 = self.spec.field1, self.spec.field2
        return [(f1.from_index(int(x)), f2.from_index(int(y))) for x, y in zip(self.xs, self.ys)]


def _membership_mask(spec: CodeSpec) -> np.ndarray:
    """(q1, q2) boolean mask of Tr(x^2) + Tr(y^{p^u+1}) == lambda, origin excluded."""
    f1, f2 = spec.field1, spec.field2
    tx = f1.trace_table()[f1.power_table(2)].astype(np.int64)
    ty = f2.trace_table()[f2.power_table(spec.p**spec.u + 1)].astype(np.int64)
    mask = (tx[:, None] + ty[None, :]) % spec.p == spec.lam
    mask[0, 0] = False
    return mask


def build_defining_set(spec: CodeSpec) -> DefiningSet:
    """Exhaustive scan of the p^K - 1 candidate points, then orbit reduction if punctured."""
    f1, f2 = spec.field1, spec.field2
    mask = _membership_mask(spec)
    lex1, lex2 = f1.lex_order(), f2.lex_order()
    hits = np.argwhere(mask[np.ix_(lex1, lex2)])
    xs = lex1[hits[:, 0]]
    ys = lex2[hits[:, 1]]
    if not spec.punctured:
        return DefiningSet(spec, xs, ys)
    # one representative per scaling orbit {c (x, y)}: the lex-smallest point,
    # which is the one the lex-ordered scan meets first.  c (x, y) scales the
    # digit rows by c mod p.
    p = spec.p
    if spec.lam == 0:
        scalars = range(2, p)
    else:
        scalars = (p - 1,)  # -1: only sign flips preserve the level set
    dx, dy = f1.digits()[xs].astype(np.int64), f2.digits()[ys].astype(np.int64)

    def rank(c):
        return f1.lex_rank(c * dx % p) * f2.q + f2.lex_rank(c * dy % p)

    own = rank(1)
    keep = np.all([rank(c) > own for c in scalars], axis=0)
    return DefiningSet(spec, xs[keep], ys[keep])


def encode(ds: DefiningSet, a: FFElement, b: FFElement) -> list[int]:
    """Codeword of the message pair (a, b): Tr(a x_j) + Tr(b y_j) per coordinate."""
    spec = ds.spec
    if a.field != spec.field1 or b.field != spec.field2:
        raise FieldMismatch("message components must lie in F_{p^m1} x F_{p^m2}")
    t1 = spec.field1.trace_of_products()
    t2 = spec.field2.trace_of_products()
    vals = (t1[a.index, ds.xs].astype(np.int64) + t2[b.index, ds.ys]) % spec.p
    return [int(v) for v in vals]


def _fibre_classes(ds: DefiningSet):
    """Group the points by x, then the x's by their y-fibre.

    Returns (xs, x_class, ys, y_class): every distinct x with its class label,
    and each class's fibre (its y's, with multiplicity) with that label.  On
    the level set Tr(x^2) + Tr(y^{p^u+1}) = lambda the fibre of x depends
    only on Tr(x^2), so there are at most p + 1 classes there.
    """
    order = np.lexsort((ds.ys, ds.xs))
    xs, ys = ds.xs[order], ds.ys[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(xs)]
    classes: dict[bytes, int] = {}
    fibres = []
    x_class = np.empty(len(starts), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        key = ys[lo:hi].tobytes()
        if key not in classes:
            classes[key] = len(fibres)
            fibres.append(ys[lo:hi])
        x_class[i] = classes[key]
    y_class = np.repeat(np.arange(len(fibres)), [len(f) for f in fibres])
    return xs[starts], x_class, np.concatenate(fibres), y_class


def _class_histograms(tr: np.ndarray, members, labels, n_classes: int, p: int) -> np.ndarray:
    """(q, n_classes * p) counts: entry [a, c p + t] is #{members z of class c : Tr(a z) = t}.

    tr is the field's (q, q) Tr(xy) table; it is read in row blocks.
    """
    q = tr.shape[0]
    width = n_classes * p
    out = np.empty((q, width), dtype=np.int64)
    cols = (labels * p)[None, :]
    step = max(1, _BLOCK // len(members))
    for lo in range(0, q, step):
        blk = tr[lo : lo + step, members] + cols
        blk += (np.arange(len(blk)) * width)[:, None]
        out[lo : lo + step] = np.bincount(blk.ravel(), minlength=len(blk) * width).reshape(-1, width)
    return out


def _group_rows(rows: np.ndarray):
    """(uniq, inv): the distinct rows of a 2-d array in lexicographic order, and each row's group.

    The same as `np.unique(rows, axis=0, return_inverse=True)` with the
    inverse raveled: one lexsort, then a cut wherever a sorted row differs
    from the one before it.
    """
    order = np.lexsort(rows.T[::-1])  # first column leading
    srt = rows[order]
    cut = np.empty(len(rows), dtype=bool)
    cut[:1] = True
    cut[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = np.cumsum(cut) - 1
    return srt[cut], inv


def check_budget(ds: DefiningSet, budget: int | None) -> None:
    """Refuse (BudgetExceeded) a job of q1 q2 n symbol evaluations above the budget; None is unlimited."""
    spec = ds.spec
    required = spec.field1.q * spec.field2.q * max(len(ds), 1)
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget)


def _class_tally(ds: DefiningSet):
    """(counts, inv_a, inv_b): the tally on distinct histogram rows, and each message's row.

    counts[i, j, r] is the number of coordinates equal to r in the codeword
    of any (a, b) with inv_a[a] = i and inv_b[b] = j.  With A_c[a, t] =
    #{x in X_c : Tr(a x) = t} and B_c[b, t] = #{y in Y_c : Tr(b y) = t}
    over the fibre classes c of the defining set (x's whose y-fibres are
    equal),

        N[a, b, r] = sum_c sum_t A_c[a, t] B_c[b, r - t mod p],

    formed once per distinct row of A and of B.  It costs about (#classes)
    |uA| |uB| p^2 plus the two per-field histograms, is exact in integers
    and holds for any set of points.
    """
    spec = ds.spec
    p = spec.p
    q1, q2 = spec.field1.q, spec.field2.q
    if len(ds) == 0:  # one all-zero row, shared by every message
        return np.zeros((1, 1, p), dtype=np.int64), np.zeros(q1, dtype=np.int64), np.zeros(q2, dtype=np.int64)
    xs, x_class, ys, y_class = _fibre_classes(ds)
    n_classes = int(x_class.max()) + 1
    hist_a = _class_histograms(spec.field1.trace_of_products(), xs, x_class, n_classes, p)
    hist_b = _class_histograms(spec.field2.trace_of_products(), ys, y_class, n_classes, p)
    uniq_a, inv_a = _group_rows(hist_a)
    uniq_b, inv_b = _group_rows(hist_b)
    uniq_a = uniq_a.reshape(len(uniq_a), n_classes, p)
    r_minus_t = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    shifted_b = uniq_b.reshape(len(uniq_b), n_classes, p)[:, :, r_minus_t]  # [b, c, r, t]
    counts = np.tensordot(uniq_a, shifted_b, axes=([1, 2], [1, 3]))  # [a, b, r]
    return counts, inv_a, inv_b


def symbol_count_table(ds: DefiningSet, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """(q1, q2, p) tally: entry [a, b, r] counts coordinates of codeword (a, b) equal to r.

    The budget counts the q1 q2 n symbol evaluations of codeword-by-codeword
    encoding and refuses the job above it.  The tally is `_class_tally`,
    expanded to every message pair.
    """
    check_budget(ds, budget)
    return _expand(*_class_tally(ds))


def _expand(counts: np.ndarray, inv_a: np.ndarray, inv_b: np.ndarray) -> np.ndarray:
    """The (q1, q2, p) table of a class tally: entry [a, b] is counts[inv_a[a], inv_b[b]]."""
    return counts[inv_a[:, None], inv_b[None, :]]


@dataclass
class EnumerationResult:
    """Everything the exhaustive sweep of all p^K messages yields.

    `table` is the (q1, q2, p) tally of `symbol_count_table`, expanded from
    the class tally the first time it is read.
    """

    length: int
    dimension: int
    cwe: dict[tuple[int, ...], int]
    we: dict[int, int]
    _tally: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def table(self) -> np.ndarray:
        return _expand(*self._tally)

    @property
    def min_distance(self) -> int:
        nz = [w for w in self.we if w > 0]
        return min(nz) if nz else 0


def complete_weight_enumerator(
    ds: DefiningSet, budget: int | None = DEFAULT_BUDGET
) -> EnumerationResult:
    """Tally the composition vector of every codeword; project to the weight enumerator.

    The compositions are the rows of the class tally: row (i, j) stands for
    the #{a : inv_a[a] = i} #{b : inv_b[b] = j} message pairs that share
    it.  Equal rows are grouped and their weights summed in int64; the CWE
    maps each composition, in lexicographic order, to its number of
    codewords.
    """
    check_budget(ds, budget)
    spec = ds.spec
    p = spec.p
    n = len(ds)
    counts, inv_a, inv_b = _class_tally(ds)
    comps, group = _group_rows(counts.reshape(-1, p))
    weight = np.outer(np.bincount(inv_a, minlength=counts.shape[0]),
                      np.bincount(inv_b, minlength=counts.shape[1]))
    freq = np.zeros(len(comps), dtype=np.int64)
    np.add.at(freq, group, weight.ravel())
    cwe = dict(zip(map(tuple, comps.tolist()), freq.tolist()))
    we, dim = we_and_dimension(cwe, n, spec.K, p)
    if dim is None:
        raise AssertionError("zero-codeword count is not a power of p")
    return EnumerationResult(length=n, dimension=dim, cwe=cwe, we=we, _tally=(counts, inv_a, inv_b))


def verify_dimension(ds: DefiningSet, budget: int | None = DEFAULT_BUDGET) -> int:
    """log_p of the number of distinct codewords (equals K iff encoding is injective)."""
    return complete_weight_enumerator(ds, budget).dimension


def we_from_cwe(cwe: dict[tuple[int, ...], int], n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for comp, k in cwe.items():
        out[n - comp[0]] = out.get(n - comp[0], 0) + k
    return out


def we_and_dimension(cwe: dict[tuple[int, ...], int], n: int, K: int, p: int):
    """(weight enumerator, dimension) of a length-n CWE over the p^K messages.

    The zero composition's frequency is the size p^{K - dim} of the encoding
    kernel; the dimension is None when that frequency is not a power of p.
    """
    we = we_from_cwe(cwe, n)
    z = cwe.get((n,) + (0,) * (p - 1), 0)
    dim = K
    while z > 1:
        if z % p:
            return we, None
        z //= p
        dim -= 1
    return we, dim


def dump_lines(ds: DefiningSet):
    """Debug dump, one line per codeword: 'a=<coeffs> b=<coeffs> c=<symbols>'.

    Symbols are base-36 digit characters in defining-set order; messages are
    emitted in index order of (a, b).
    """
    spec = ds.spec
    f1, f2 = spec.field1, spec.field2
    for ai in range(f1.q):
        a = f1.from_index(ai)
        for bi in range(f2.q):
            b = f2.from_index(bi)
            word = encode(ds, a, b)
            yield "a={} b={} c={}".format(
                ",".join(map(str, a.coeffs)),
                ",".join(map(str, b.coeffs)),
                "".join(_DIGITS[s] for s in word),
            )
