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

from .gf import CompositeP, FFElement, FieldMismatch, FiniteField, cached_field, histogram_split, is_odd_prime, mod_p

DEFAULT_BUDGET = 10_000_000

# the entry type of the per-pair (q1, q2, p) composition tables, here and in `theory`: an entry counts coordinates,
# so it is at most n, and n <= q1 q2 keeps n < 2^31 for any table of fewer than 2^31 p entries
TABLE_DTYPE = np.int32

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class BudgetExceeded(Exception):
    """A job would exceed the operation budget; `stage` names the charged work in the message."""

    def __init__(self, required, budget, at_least=False, stage="enumeration"):
        needs = f"at least {required}" if at_least else required
        super().__init__(f"{stage} needs {needs} operations, budget is {budget}")
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
    def field1(self) -> FiniteField:
        return cached_field(self.p, self.m1, self.mod1)

    @property
    def field2(self) -> FiniteField:
        return cached_field(self.p, self.m2, self.mod2)

    def full(self) -> "CodeSpec":
        return CodeSpec(self.p, self.m1, self.m2, self.u, self.lam, False, self.mod1, self.mod2)


class DefiningSet:
    """The realized coordinate set, held as disjoint product blocks of field indices.

    `blocks` lists pairs (xs_c, ys_c) of index arrays into the two fields;
    the set is the union of the products X_c x Y_c.  `xs`, `ys` and `points`
    are materialized on first read, ordered lexicographically on
    (x-coefficients, y-coefficients) so codeword coordinates are
    reproducible run to run.
    """

    def __init__(self, spec: CodeSpec, blocks):
        self.spec = spec
        self.blocks = [(xs, ys) for xs, ys in blocks if len(xs) and len(ys)]

    def __len__(self):
        return sum(len(xs) * len(ys) for xs, ys in self.blocks)

    @cached_property
    def _lex(self) -> tuple[np.ndarray, np.ndarray]:
        f1, f2 = self.spec.field1, self.spec.field2
        empty = [np.zeros(0, dtype=np.int64)]
        xs = np.concatenate(empty + [np.repeat(bx, len(by)) for bx, by in self.blocks])
        ys = np.concatenate(empty + [np.tile(by, len(bx)) for bx, by in self.blocks])
        rank1, rank2 = f1.lex_rank(f1.digits()), f2.lex_rank(f2.digits())
        order = np.argsort(rank1[xs] * f2.q + rank2[ys])
        return xs[order], ys[order]

    @property
    def xs(self) -> np.ndarray:
        return self._lex[0]

    @property
    def ys(self) -> np.ndarray:
        return self._lex[1]

    @cached_property
    def points(self) -> list[tuple[FFElement, FFElement]]:
        f1, f2 = self.spec.field1, self.spec.field2
        return [(f1.from_index(int(x)), f2.from_index(int(y))) for x, y in zip(self.xs, self.ys)]


def build_defining_set(spec: CodeSpec) -> DefiningSet:
    """Scan the q1 + q2 level values; the set is the union of its level-product blocks.

    With X_t = {x : Tr(x^2) = t} and Y_s = {y : Tr(y^{p^u+1}) = s}, the
    blocks are (X_t minus 0, Y_{lambda - t}) for each t, plus
    (0, Y_lambda minus 0).  Punctured, the set keeps one point per scaling
    orbit {c (x, y)}, the lex-smallest: the order is x-major and c x != x
    for x != 0, so off x = 0 the choice depends on x alone, and on x = 0 on
    y alone.  Each block is filtered before any point exists.
    """
    f1, f2 = spec.field1, spec.field2
    p, lam = spec.p, spec.lam
    level_x, level_y = f1.quadratic_trace(0), f2.quadratic_trace(spec.u)
    if spec.punctured:
        # c (x, y) must keep the level set: every c != 0 for lambda = 0, else only +-1.  The
        # lex-least of the c x leads with the least of the c lead(x): 1, or lead(x) <= (p - 1)/2
        top = 1 if lam == 0 else (p - 1) // 2
        keep_x, keep_y = f1.leading() <= top, f2.leading() <= top
    else:
        keep_x, keep_y = np.ones(f1.q, dtype=bool), np.ones(f2.q, dtype=bool)
    keep_x[0] = keep_y[0] = False  # x = 0 has a block of its own, where y = 0 is the origin
    ys_of = [np.flatnonzero(level_y == s) for s in range(p)]
    blocks = [(np.flatnonzero((level_x == t) & keep_x), ys_of[(lam - t) % p]) for t in range(p)]
    blocks.append((np.zeros(1, dtype=np.int64), ys_of[lam][keep_y[ys_of[lam]]]))
    return DefiningSet(spec, blocks)


def encode(ds: DefiningSet, a: FFElement, b: FFElement) -> list[int]:
    """Codeword of the message pair (a, b): Tr(a x_j) + Tr(b y_j) per coordinate."""
    spec = ds.spec
    if a.field != spec.field1 or b.field != spec.field2:
        raise FieldMismatch("message components must lie in F_{p^m1} x F_{p^m2}")
    ta = spec.field1.trace_forms([a.index])[0]
    tb = spec.field2.trace_forms([b.index])[0]
    return ((ta[ds.xs] + tb[ds.ys]) % spec.p).tolist()


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a sorted 1-d array starts a run of equal entries."""
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


def _sorted_groups(rows: np.ndarray):
    """(order, cut): rows[order] is in lexicographic order, and cut marks where a run of equal rows starts.

    The entries must be non-negative.  Each row is packed into as few int64
    key words as fit: a word holds k consecutive columns as base-(max + 1)
    digits, the first column most significant, with k the most that keep
    every key below 2^63.  Packing keeps the lexicographic order, so one
    argsort orders the rows, or one lexsort of the few words.
    """
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    if rows.min() < 0:
        raise ValueError("rows to group must be non-negative")
    radix = int(rows.max()) + 1
    k = 1
    while k < rows.shape[1] and radix ** (k + 1) < 1 << 63:
        k += 1
    places = np.array([radix**e for e in range(k - 1, -1, -1)], dtype=np.int64)
    words = []
    for j in range(0, rows.shape[1], k):
        cols = rows[:, j:j + k]
        words.append(cols @ places[k - cols.shape[1]:])
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    cut = _run_starts(words[0][order])
    for word in words[1:]:
        cut |= _run_starts(word[order])
    return order, cut


def _group_rows(rows: np.ndarray):
    """(uniq, inv): the distinct rows of a 2-d array in lexicographic order, and each row's group.

    The same as `np.unique(rows, axis=0, return_inverse=True)` with the
    inverse raveled, for non-negative entries (`_sorted_groups`).
    """
    order, cut = _sorted_groups(rows)
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = np.cumsum(cut) - 1
    return rows[order[cut]], inv


def check_budget(required: int, budget: int | None, at_least: bool = False, stage: str = "enumeration") -> None:
    """Refuse (BudgetExceeded) a job of `required` operations above the budget; None is unlimited.

    at_least marks a lower bound, charged before the rest of the cost is known.
    """
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget, at_least, stage)


def check_table_length(n: int) -> None:
    """Refuse (AssertionError) a length n that a `TABLE_DTYPE` entry cannot hold, before any table is built."""
    if n > np.iinfo(TABLE_DTYPE).max:
        raise AssertionError(f"n = {n} is too large for the {np.dtype(TABLE_DTYPE)} entries of a composition table")


# a block of the pair loop holds at most this many entries (1 MB at float64) of shifted rows, products or counts written
_PAIR_BLOCK = 1 << 17


def _grouped_histograms(ds: DefiningSet, budget: int | None):
    """(spent, (uniq_a, inv_a), (uniq_b, inv_b)): each side's distinct histogram rows, and each message's row.

    The classes are the product blocks X_c x Y_c of the defining set (at
    most p + 1 level blocks on D_lambda).  The rows are A_c[a, t] =
    #{x in X_c : Tr(a x) = t} and B_c[b, t] = #{y in Y_c : Tr(b y) = t}
    (`FiniteField.class_histograms`), grouped by `_group_rows`; an empty set
    has one all-zero row on each side, shared by every message.  spent is
    the cost so far, the q1 + q2 level values scanned for the blocks and the
    two histograms (`histogram_split`), checked before any array is built.
    """
    spec = ds.spec
    p = spec.p
    f1, f2 = spec.field1, spec.field2
    spent = f1.q + f2.q
    if len(ds) == 0:
        zero = np.zeros((1, p), dtype=np.int64)
        return spent, (zero, np.zeros(f1.q, dtype=np.int64)), (zero, np.zeros(f2.q, dtype=np.int64))
    n_classes = len(ds.blocks)
    x_sizes = [len(bx) for bx, _ in ds.blocks]
    y_sizes = [len(by) for _, by in ds.blocks]
    spent += histogram_split(sum(x_sizes), n_classes, p, f1.m)[1]
    spent += histogram_split(sum(y_sizes), n_classes, p, f2.m)[1]
    check_budget(spent, budget, at_least=True)
    xs = np.concatenate([bx for bx, _ in ds.blocks])
    ys = np.concatenate([by for _, by in ds.blocks])
    hist_a = f1.class_histograms(xs, np.repeat(np.arange(n_classes), x_sizes), n_classes)
    hist_b = f2.class_histograms(ys, np.repeat(np.arange(n_classes), y_sizes), n_classes)
    return spent, _group_rows(hist_a), _group_rows(hist_b)


def _row_multiples(f: FiniteField, inv: np.ndarray, n_rows: int):
    """(first, multiple): one element of each histogram row, and [d, i] = the row of d x for x in row i.

    A row counts Tr(x z) = t per (class, t) bin, and Tr(d x z) = d Tr(x z),
    so the row of d x is that of x with its t axis scaled by 1 / d: it
    follows from the row of x, and for d != 0 it maps the rows one to one.
    """
    first = np.empty(n_rows, dtype=np.int64)
    first[inv] = np.arange(len(inv))
    return first, inv[f.indices_of(mod_p(np.arange(f.p)[:, None, None] * f.digits()[first], f.p))]


def _class_tally(ds: DefiningSet, budget: int | None = None):
    """(counts, inv_a, inv_b): the tally on histogram rows, and the row of each element of F_{q1} and of F_{q2}.

    counts[i, j, r] counts the coordinates equal to r in the codeword of
    every (a, b) with a in A row i and b in B row j (`_grouped_histograms`).

    N[a, b, r] = sum_c sum_t A_c[a, t] B_c[b, r - t mod p] for any disjoint
    blocks.  By linearity N[d x, y, r] = N[x, y / d, r / d] for d in F_p*.
    The side with the more distinct rows is the scaled side: with x = d_i u
    there, u leading with 1 (`FiniteField.leading`), only the rows of such u
    are paired (`_row_multiples`), over the kept bins alone, the (class, t)
    bins c p + t nonzero in some such row, so a thin class side costs its
    members, not p.  One loop over blocks of other rows pairs each block,
    its rows shifted by every t times the kept columns of the paired rows as
    one float64 matmul.  Row (u's row, y's row) then gives, read at symbols
    r / d_i, row (i, row of d_i y) with the sides in (A, B) order: each block
    is written through one flat index.  The product is exact: every term and
    partial sum is a non-negative integer at most sum_c |X_c| |Y_c| = n <
    2^53.  A block holds at most `_PAIR_BLOCK` shifted entries, products and
    counts written.  Every row must sum to n; one that does not raises
    AssertionError, as n >= 2^53 does.

    The budget charges the scan and the histograms, then, once, before any
    pair is formed, the rows x other rows x p counts written plus the paired
    rows x kept bins x other rows x p multiply-adds.
    """
    spec = ds.spec
    p = spec.p
    if len(ds) >= 1 << 53:
        raise AssertionError("n is too large for an exact float64 tally")
    spent, side_a, side_b = _grouped_histograms(ds, budget)
    b_scaled = len(side_b[0]) > len(side_a[0])
    sides = (spec.field1, *side_a), (spec.field2, *side_b)
    (f, rows, inv), (f_other, other, inv_other) = sides[::-1] if b_scaled else sides
    first, multiple = _row_multiples(f, inv, len(rows))
    scale = f.leading()[first]
    inverse = np.array([0] + [pow(d, -1, p) for d in range(1, p)], dtype=np.int64)
    paired_row = multiple[inverse[scale], np.arange(len(rows))]  # the row of x / lead(x)
    reps = np.flatnonzero(np.bincount(paired_row, minlength=len(rows)))
    rep_of = np.searchsorted(reps, paired_row)
    bins = np.flatnonzero(rows[reps].sum(axis=0))  # the entries are counts, so a zero sum is an empty bin
    check_budget(spent + len(rows) * len(other) * p + len(reps) * len(bins) * len(other) * p, budget)
    lands = _row_multiples(f_other, inv_other, len(other))[1][scale]  # [i, j]: the row of d_i y for y in row j
    i = np.arange(len(rows))[:, None]
    flat = (lands * len(rows) + i if b_scaled else i * len(other) + lands).T  # [j, i]: where pair (i, j) is written
    c, t = np.divmod(bins, p)
    src = c * p + (np.arange(p)[:, None] - t) % p  # shifted[j, r, l] = other[j, src[r, l]]
    weights = rows[reps][:, bins].T.astype(np.float64)
    other = other.astype(np.float64)
    r_of = inverse[scale][:, None] * np.arange(p) % p  # [i, r]: the symbol r / d_i
    counts = np.empty((len(rows) * len(other), p), dtype=np.int64)
    step = max(1, _PAIR_BLOCK // (p * max(len(bins), len(rows))))
    for lo in range(0, len(other), step):
        shifted = other[lo:lo + step, src]  # (block, p, kept)
        paired = (shifted.reshape(len(shifted) * p, -1) @ weights).reshape(-1, p, len(reps))
        counts[flat[lo:lo + step]] = paired[:, r_of, rep_of[:, None]]
    if (counts.sum(axis=1) != len(ds)).any():
        raise AssertionError("a gathered composition does not sum to n")
    return counts.reshape(len(side_a[0]), len(side_b[0]), p), side_a[1], side_b[1]


def symbol_count_table(ds: DefiningSet, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """(q1, q2, p) `TABLE_DTYPE` tally: entry [a, b, r] counts coordinates of codeword (a, b) equal to r.

    The table is the tally (`_class_tally`) read at (row of a, row of b).
    Its rows are cast to int32 before the gather, so no int64 array of the
    table's size is built; n >= 2^31 is refused (`check_table_length`)
    before anything is.  The budget charges the q1 q2 p entries of the
    table, a lower bound, before the tally's own charge, which is the
    measurement's.
    """
    spec = ds.spec
    check_table_length(len(ds))
    check_budget(spec.field1.q * spec.field2.q * spec.p, budget, at_least=True)
    counts, inv_a, inv_b = _class_tally(ds, budget)
    counts = counts.astype(TABLE_DTYPE)
    return counts[inv_a[:, None], inv_b[None, :]]


@dataclass
class EnumerationResult:
    """Everything the exhaustive sweep of all p^K messages yields.

    The measured CWE is the pair of arrays `comps`, the distinct
    compositions in lexicographic order ((rows, p) int64), and `freq`, the
    number of codewords of each (int64).  `cwe` is the same enumerator as a
    dict, composition tuple -> int in that order, built the first time it is
    read.  `table` is the (q1, q2, p) `TABLE_DTYPE` (int32) tally of
    `symbol_count_table`, read from the CWE's orbit tally of the defining set
    `ds` the first time it is read, without a budget: the measurement was
    charged for it.  Reading it refuses n >= 2^31 with AssertionError.
    """

    length: int
    dimension: int
    comps: np.ndarray
    freq: np.ndarray
    we: dict[int, int]
    ds: DefiningSet = field(repr=False)

    @cached_property
    def cwe(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.comps.tolist()), self.freq.tolist()))

    @cached_property
    def table(self) -> np.ndarray:
        return symbol_count_table(self.ds, budget=None)

    @property
    def min_distance(self) -> int:
        return min_weight(self.we)


def complete_weight_enumerator(
    ds: DefiningSet, budget: int | None = DEFAULT_BUDGET
) -> EnumerationResult:
    """Tally the composition vector of every codeword; project to the weight enumerator.

    Row (i, j) of the class tally (`_class_tally`, whose budget this is)
    holds |A row i| |B row j| codewords.  Equal rows are
    sorted into runs (`_sorted_groups`) and each run's weights summed in
    int64: `comps` (lexicographic order) and `freq`.  The WE and the dimension
    come from their zero-symbol column, summed per run of equal zeros first
    (`we_and_dimension`); the `cwe` dict is left until it is read.
    """
    spec = ds.spec
    p = spec.p
    n = len(ds)
    counts, inv_a, inv_b = _class_tally(ds, budget)
    all_rows = counts.reshape(-1, p)
    order, cut = _sorted_groups(all_rows)
    starts = np.flatnonzero(cut)
    comps = all_rows[order[starts]]
    sizes = np.bincount(inv_a, minlength=counts.shape[0]), np.bincount(inv_b, minlength=counts.shape[1])
    freq = np.add.reduceat(np.outer(*sizes).ravel()[order], starts)
    # column 0 is non-decreasing in lexicographic order: one entry per run of equal zeros
    zeros = comps[:, 0]
    runs = np.flatnonzero(_run_starts(zeros))
    we, dim = we_and_dimension(zeros[runs].tolist(), np.add.reduceat(freq, runs).tolist(), n, spec.K, p)
    if dim is None:
        raise AssertionError("zero-codeword count is not a power of p")
    return EnumerationResult(length=n, dimension=dim, comps=comps, freq=freq, we=we, ds=ds)


def min_weight(weights) -> int:
    """The least nonzero weight among weights (a linear code's minimum distance), 0 if none."""
    return min((w for w in weights if w > 0), default=0)


def we_and_dimension(zeros, freq, n: int, K: int, p: int):
    """(weight enumerator, dimension) of a length-n CWE over the p^K messages.

    zeros[i] is the number of 0 symbols in the i-th composition and freq[i]
    its number of codewords, as Python ints; a codeword's weight is n minus
    its zeros, and the sums are exact.  The weight-0 frequency, that of the
    zero composition (n, 0, ..., 0), is the size p^{K - dim} of the encoding
    kernel; the dimension is None when it is 0 or not a power of p.
    """
    we: dict[int, int] = {}
    for z, k in zip(zeros, freq):
        we[n - z] = we.get(n - z, 0) + k
    kernel = we.get(0, 0)
    if kernel < 1:
        return we, None
    dim = K
    while kernel > 1:
        if kernel % p:
            return we, None
        kernel //= p
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
