"""Defining sets, encoding, and exhaustive enumeration against frozen oracles."""

import ast
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import defining_set_of, enumeration_of, sweep_specs
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from weilcodes import codes, gf
from weilcodes.codes import (
    BudgetExceeded,
    CodeSpec,
    DefiningSet,
    _class_tally,
    _group_rows,
    build_defining_set,
    complete_weight_enumerator,
    dump_lines,
    encode,
    symbol_count_table,
    we_and_dimension,
)
from weilcodes.gf import FieldMismatch, FiniteField, histogram_split, is_irreducible, smallest_irreducible


def brute_points(spec):
    """Independent defining-set scan with element-level arithmetic."""
    f1, f2 = spec.field1, spec.field2
    e = spec.p**spec.u + 1
    out = []
    for x in f1.elements():
        for y in f2.elements():
            if x.is_zero() and y.is_zero():
                continue
            if ((x * x).trace() + (y**e).trace()) % spec.p == spec.lam:
                out.append((x, y))
    return out


def from_points(spec, xs, ys):
    """A defining set of arbitrary points: one singleton block per point."""
    return DefiningSet(spec, [(xs[i : i + 1], ys[i : i + 1]) for i in range(len(xs))])


def reference_scan(spec):
    """The q1 x q2 membership mask read in lex order, then a per-point orbit ranking."""
    f1, f2 = spec.field1, spec.field2
    p = spec.p
    tx = f1.trace_table()[f1.power_table(2)].astype(np.int64)
    ty = f2.trace_table()[f2.power_table(p**spec.u + 1)].astype(np.int64)
    mask = (tx[:, None] + ty[None, :]) % p == spec.lam
    mask[0, 0] = False
    lex1, lex2 = f1.lex_order(), f2.lex_order()
    hits = np.argwhere(mask[np.ix_(lex1, lex2)])
    xs, ys = lex1[hits[:, 0]], lex2[hits[:, 1]]
    if not spec.punctured:
        return xs, ys
    # keep a point iff its lex rank is below that of each of its multiples
    scalars = range(2, p) if spec.lam == 0 else (p - 1,)
    dx, dy = f1.digits()[xs].astype(np.int64), f2.digits()[ys].astype(np.int64)

    def rank(c):
        return f1.lex_rank(c * dx % p) * f2.q + f2.lex_rank(c * dy % p)

    own = rank(1)
    keep = np.all([rank(c) > own for c in scalars], axis=0)
    return xs[keep], ys[keep]


def _p7_grid():
    return [
        CodeSpec(7, m1, m2, u, lam, punct)
        for m1 in (1, 2) for m2 in (1, 2) for u in (1, 2, 3) for lam in range(7) for punct in (False, True)
    ]


def test_level_blocks_equal_the_mask_scan():
    custom = CodeSpec(7, 1, 2, 1, 3, mod1=(3, 1), mod2=(2, 5, 1))
    specs = list(sweep_specs()) + _p7_grid() + [custom, replace(custom, punctured=True)]
    assert len(specs) == 546 + 168 + 2
    for spec in specs:
        ds = build_defining_set(spec)
        xs, ys = reference_scan(spec)
        assert np.array_equal(ds.xs, xs), spec
        assert np.array_equal(ds.ys, ys), spec
        assert len(ds) == len(xs)


def test_enumeration_leaves_points_unmaterialized():
    for punctured in (False, True):
        ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0, punctured))
        assert complete_weight_enumerator(ds).length == len(ds)
        assert "_lex" not in vars(ds) and "points" not in vars(ds)


def test_defining_set_sizes_reference_rows():
    assert len(build_defining_set(CodeSpec(3, 2, 2, 1, 0))) == 20
    assert len(build_defining_set(CodeSpec(3, 2, 2, 1, 2))) == 30
    assert len(build_defining_set(CodeSpec(3, 2, 2, 1, 0, punctured=True))) == 10
    assert len(build_defining_set(CodeSpec(3, 2, 2, 1, 2, punctured=True))) == 15


def test_defining_set_matches_independent_scan():
    for lam in (0, 1, 2):
        spec = CodeSpec(3, 1, 2, 1, lam)
        ds = build_defining_set(spec)
        assert set(ds.points) == set(brute_points(spec))


def test_point_order_is_lex_on_coeff_pairs():
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    keys = [(x.coeffs, y.coeffs) for x, y in ds.points]
    assert keys == sorted(keys)


def test_scaling_closure():
    spec = CodeSpec(3, 2, 2, 1, 0)
    ds = build_defining_set(spec)
    pts = set(ds.points)
    two1, two2 = spec.field1.scalar(2), spec.field2.scalar(2)
    for x, y in pts:
        assert (two1 * x, two2 * y) in pts
    spec = CodeSpec(3, 2, 2, 1, 2)
    pts = set(build_defining_set(spec).points)
    for x, y in pts:
        assert (-x, -y) in pts


def test_punctured_orbits_partition_full_set():
    for lam, orbit in [(0, 2), (1, 2), (2, 2)]:
        spec = CodeSpec(3, 1, 2, 2, lam)
        full = build_defining_set(spec)
        punct = build_defining_set(CodeSpec(3, 1, 2, 2, lam, punctured=True))
        size = (spec.p - 1) if lam == 0 else 2
        assert len(full) == size * len(punct)
        # representatives are lex-smallest in their orbits
        pts = punct.points
        f1, f2 = spec.field1, spec.field2
        scalars = range(1, spec.p) if lam == 0 else (1, spec.p - 1)
        for x, y in pts:
            orbit_keys = [
                ((f1.scalar(c) * x).coeffs, (f2.scalar(c) * y).coeffs) for c in scalars
            ]
            assert (x.coeffs, y.coeffs) == min(orbit_keys)


def test_encode_zero_linearity_and_weights():
    spec = CodeSpec(3, 2, 2, 1, 0)
    ds = build_defining_set(spec)
    f1, f2 = spec.field1, spec.field2
    assert encode(ds, f1.zero(), f2.zero()) == [0] * 20
    a, a2 = f1.gen(), f1.one()
    b, b2 = f2.gen(), f2.gen() + f2.one()
    lhs = encode(ds, a + a2, b + b2)
    rhs = [(s + t) % 3 for s, t in zip(encode(ds, a, b), encode(ds, a2, b2))]
    assert lhs == rhs
    weights = set()
    for ai in range(9):
        for bi in range(9):
            if ai == 0 and bi == 0:
                continue
            word = encode(ds, f1.from_index(ai), f2.from_index(bi))
            weights.add(sum(1 for s in word if s))
    assert weights == {12, 18}


def test_encode_field_mismatch():
    spec = CodeSpec(3, 1, 2, 1, 0)
    ds = build_defining_set(spec)
    with pytest.raises(FieldMismatch):
        encode(ds, spec.field2.zero(), spec.field2.zero())


def test_cwe_20_4_12_frozen():
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    res = complete_weight_enumerator(ds)
    assert res.cwe == {(20, 0, 0): 1, (8, 6, 6): 60, (2, 9, 9): 20}
    assert res.we == {0: 1, 12: 60, 18: 20}
    assert res.dimension == 4
    assert res.min_distance == 12


def test_we_30_4_18():
    res = complete_weight_enumerator(build_defining_set(CodeSpec(3, 2, 2, 1, 2)))
    assert res.we == {0: 1, 18: 50, 24: 30}
    assert res.dimension == 4


def test_zero_composition_has_frequency_one_nondegenerate():
    for lam in (0, 1):
        ds = build_defining_set(CodeSpec(3, 1, 2, 1, lam))
        res = complete_weight_enumerator(ds)
        n = res.length
        assert res.cwe[(n,) + (0, 0)] == 1
        assert sum(res.cwe.values()) == 3**3


def test_dimension_examples():
    assert complete_weight_enumerator(build_defining_set(CodeSpec(3, 2, 2, 1, 0))).dimension == 4
    assert complete_weight_enumerator(build_defining_set(CodeSpec(3, 3, 2, 2, 0))).dimension == 5


def test_degenerate_defining_set_drops_dimension():
    # restricting points to (x, 0) leaves b unconstrained: dimension <= m1
    spec = CodeSpec(3, 2, 2, 1, 0)
    ds = build_defining_set(spec)
    keep = ds.ys == 0
    assert keep.any()
    restricted = from_points(spec, ds.xs[keep], ds.ys[keep])
    assert complete_weight_enumerator(restricted).dimension <= 2


def test_puncture_law_per_message():
    for lam, factor in [(0, 2), (1, 2), (2, 2)]:
        spec_full = CodeSpec(3, 2, 2, 1, lam)
        spec_p = CodeSpec(3, 2, 2, 1, lam, punctured=True)
        full = build_defining_set(spec_full)
        punct = build_defining_set(spec_p)
        f1, f2 = spec_full.field1, spec_full.field2
        for ai in range(f1.q):
            for bi in range(f2.q):
                a, b = f1.from_index(ai), f2.from_index(bi)
                wf = sum(1 for s in encode(full, a, b) if s)
                wp = sum(1 for s in encode(punct, a, b) if s)
                assert wf == factor * wp


def test_cwe_symmetry_under_symbol_scaling():
    res = complete_weight_enumerator(build_defining_set(CodeSpec(3, 1, 2, 1, 0)))
    for comp, k in res.cwe.items():
        # c = 2 permutes the nonzero symbols 1 <-> 2
        assert res.cwe[(comp[0], comp[2], comp[1])] == k


def test_no_identically_zero_coordinate():
    # A_1-dual-free: every defining-set point is nonzero, so some message
    # hits a nonzero symbol in every coordinate
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    f1, f2 = ds.spec.field1, ds.spec.field2
    n = len(ds)
    hit = [False] * n
    for ai in range(f1.q):
        for bi in range(f2.q):
            word = encode(ds, f1.from_index(ai), f2.from_index(bi))
            for j, s in enumerate(word):
                if s:
                    hit[j] = True
    assert all(hit)


def test_budget_guard():
    # blocks (|X_c|, |Y_c|) = (4, 1), (2, 4), (2, 4) in F_9 x F_9: the scan
    # reads 9 + 9 level values, the direct counts (g = m = 2) write 8 * 9 and
    # 9 * 9 keys.  Each of the 4 distinct A rows holds a and -a, one of which
    # leads with 1, so all 4 are paired with the 3 B rows at 3 classes * 3^2
    # each, and the 4 x 3 row pairs gather 3 symbols each
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    histograms = 18 + 72 + 81
    total = histograms + 4 * 3 * 3 * 9 + 4 * 3 * 3
    with pytest.raises(BudgetExceeded, match="needs at least 171 operations") as exc:
        complete_weight_enumerator(ds, budget=histograms - 1)
    assert exc.value.required == histograms
    with pytest.raises(BudgetExceeded, match="needs 531 operations") as exc:
        complete_weight_enumerator(ds, budget=total - 1)
    assert exc.value.required == total
    assert complete_weight_enumerator(ds, budget=total).length == 20
    assert complete_weight_enumerator(ds, budget=None).length == 20


def test_budget_charges_the_orbit_pass():
    # (13, 2, 2, 1, 0, punctured): 169 distinct A rows against 13 B rows; the 169 - 1 nonzero
    # elements fall into 14 scaling orbits, whose elements leading with 1 (and 0) have 15 rows
    # with 93 nonempty (class, t) bins.  Those pair with the 13 B rows, p = 13 symbols each,
    # and the 169 x 13 x 13 entries of the other rows are gathered.
    spec = CodeSpec(13, 2, 2, 1, 0, punctured=True)
    ds = build_defining_set(spec)
    f1, f2 = spec.field1, spec.field2
    xs = np.concatenate([bx for bx, _ in ds.blocks])
    ys = np.concatenate([by for _, by in ds.blocks])
    labels_x = np.repeat(np.arange(len(ds.blocks)), [len(bx) for bx, _ in ds.blocks])
    hist_a = f1.class_histograms(xs, labels_x, len(ds.blocks))
    uniq_a = np.unique(hist_a, axis=0)
    leads_with_one = [x for x in range(f1.q) if x == 0 or f1.coeffs_of(x)[np.flatnonzero(f1.coeffs_of(x))[0]] == 1]
    rep_rows = np.unique(hist_a[leads_with_one], axis=0)
    assert (len(uniq_a), len(rep_rows), np.count_nonzero(rep_rows.sum(axis=0))) == (169, 15, 93)
    spent = f1.q + f2.q + histogram_split(len(xs), len(ds.blocks), 13, 2)[1] + \
        histogram_split(len(ys), len(ds.blocks), 13, 2)[1]
    total = spent + 15 * 93 * 13 * 13 + 169 * 13 * 13
    with pytest.raises(BudgetExceeded) as exc:
        complete_weight_enumerator(ds, budget=total - 1)
    assert exc.value.required == total
    assert complete_weight_enumerator(ds, budget=total).length == len(ds)


def test_symbol_count_table_matches_encode():
    ds = build_defining_set(CodeSpec(3, 1, 2, 2, 1))
    table = symbol_count_table(ds)
    f1, f2 = ds.spec.field1, ds.spec.field2
    for ai in range(f1.q):
        for bi in range(f2.q):
            word = encode(ds, f1.from_index(ai), f2.from_index(bi))
            want = [word.count(r) for r in range(3)]
            assert list(table[ai, bi]) == want


def _flipped_representative_set():
    """The punctured (3, 2, 2, 1, 0) set with its first representative scaled by 2."""
    spec = CodeSpec(3, 2, 2, 1, 0, punctured=True)
    ds = build_defining_set(spec)
    xs, ys = ds.xs.copy(), ds.ys.copy()
    f1, f2 = spec.field1, spec.field2
    xs[0] = (f1.from_index(2) * f1.from_index(int(xs[0]))).index
    ys[0] = (f2.from_index(2) * f2.from_index(int(ys[0]))).index
    return from_points(spec, xs, ys)


def _random_subset():
    """A seeded half of D_0 for (5, 1, 2, 1): x's with equal Tr(x^2) keep different fibres."""
    spec = CodeSpec(5, 1, 2, 1, 0)
    ds = build_defining_set(spec)
    keep = np.random.default_rng(20240).random(len(ds)) < 0.5
    sub = from_points(spec, ds.xs[keep], ds.ys[keep])
    f1 = spec.field1
    level = f1.trace_table()[f1.power_table(2)]
    fibres = {}
    for x, y in zip(sub.xs.tolist(), sub.ys.tolist()):
        fibres.setdefault(x, set()).add(y)
    by_level = {}
    for x, fibre in fibres.items():
        by_level.setdefault(int(level[x]), set()).add(frozenset(fibre))
    assert any(len(distinct) > 1 for distinct in by_level.values())
    return sub


def _hand_made_set(kind):
    spec = CodeSpec(3, 2, 2, 1, 0)
    ds = build_defining_set(spec)
    if kind == "empty":
        return from_points(spec, ds.xs[:0], ds.ys[:0])
    if kind == "single-point":
        return from_points(spec, ds.xs[3:4], ds.ys[3:4])
    if kind == "flipped-representative":
        return _flipped_representative_set()
    if kind == "random-subset":
        return _random_subset()
    if kind == "p7-custom-moduli":
        return build_defining_set(CodeSpec(7, 1, 2, 1, 3, mod1=(3, 1), mod2=(2, 5, 1)))
    raise ValueError(kind)


@pytest.mark.parametrize(
    "kind", ["empty", "single-point", "flipped-representative", "random-subset", "p7-custom-moduli"]
)
def test_factorized_tally_matches_encode_rows(kind):
    # sets without the level-set structure: the fibre classes are arbitrary
    ds = _hand_made_set(kind)
    f1, f2 = ds.spec.field1, ds.spec.field2
    p = ds.spec.p
    want = np.zeros((f1.q, f2.q, p), dtype=np.int64)
    for ai in range(f1.q):
        for bi in range(f2.q):
            word = encode(ds, f1.from_index(ai), f2.from_index(bi))
            want[ai, bi] = np.bincount(word, minlength=p)
    table = symbol_count_table(ds)
    assert table.dtype == np.int32
    assert np.array_equal(table, want)
    # the CWE weighs each class pair by its number of messages instead of
    # reading the table; the table itself is expanded only when read
    res = complete_weight_enumerator(ds)
    cwe = Counter(tuple(int(c) for c in row) for row in table.reshape(-1, p))
    assert res.cwe == cwe
    assert list(res.cwe) == sorted(cwe)
    assert all(type(k) is int for k in res.cwe.values())
    assert res.table.dtype == np.int32
    assert np.array_equal(res.table, table)


def _reference_tally(ds):
    """The class tally as one tensordot of every distinct A row with a (|uB|, #classes, p, p) shifted copy of B."""
    spec = ds.spec
    p = spec.p
    f1, f2 = spec.field1, spec.field2
    if len(ds) == 0:
        return np.zeros((1, 1, p), dtype=np.int64), np.zeros(f1.q, dtype=np.int64), np.zeros(f2.q, dtype=np.int64)
    n_classes = len(ds.blocks)
    xs = np.concatenate([bx for bx, _ in ds.blocks])
    ys = np.concatenate([by for _, by in ds.blocks])
    hist_a = f1.class_histograms(xs, np.repeat(np.arange(n_classes), [len(bx) for bx, _ in ds.blocks]), n_classes)
    hist_b = f2.class_histograms(ys, np.repeat(np.arange(n_classes), [len(by) for _, by in ds.blocks]), n_classes)
    uniq_a, inv_a = _group_rows(hist_a)
    uniq_b, inv_b = _group_rows(hist_b)
    uniq_a = uniq_a.reshape(len(uniq_a), n_classes, p)
    r_minus_t = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    shifted_b = uniq_b.reshape(len(uniq_b), n_classes, p)[:, :, r_minus_t]  # [b, c, r, t]
    return np.tensordot(uniq_a, shifted_b, axes=([1, 2], [1, 3])), inv_a, inv_b


def _assert_tally_is_the_reference(ds):
    # the class tally against the all-rows tensordot, array for array, and the table read from it
    # at every message pair: codeword by codeword, not only as a multiset
    counts, inv_a, inv_b = _reference_tally(ds)
    for got, want in zip(_class_tally(ds), (counts, inv_a, inv_b)):
        assert got.dtype == want.dtype and np.array_equal(got, want), ds.spec
    table = symbol_count_table(ds)
    assert table.dtype == np.int32 and table.flags.c_contiguous, ds.spec
    assert np.array_equal(table, counts[inv_a[:, None], inv_b[None, :]]), ds.spec


def _reference_cwe(ds):
    """The CWE as a Counter over `_reference_tally`: row (i, j) for #{a in row i} #{b in row j} messages."""
    counts, inv_a, inv_b = _reference_tally(ds)
    n_a, n_b = np.bincount(inv_a), np.bincount(inv_b)
    cwe = Counter()
    for i, j in product(range(counts.shape[0]), range(counts.shape[1])):
        cwe[tuple(counts[i, j].tolist())] += int(n_a[i] * n_b[j])
    return cwe


def _assert_cwe_is_the_reference(ds):
    res, want = complete_weight_enumerator(ds, budget=None), _reference_cwe(ds)
    assert res.comps.dtype == np.int64 and res.freq.dtype == np.int64, ds.spec
    assert res.comps.tolist() == sorted(map(list, want)), ds.spec
    assert res.freq.tolist() == [want[tuple(c)] for c in res.comps.tolist()], ds.spec


_KINDS = ["empty", "single-point", "flipped-representative", "random-subset", "p7-custom-moduli"]


# each input runs at the default pair block and at one other row per block (`_PAIR_BLOCK` = 1)
@pytest.mark.parametrize("kind, block", [(k, codes._PAIR_BLOCK) for k in _KINDS] + [(k, 1) for k in _KINDS],
                         ids=_KINDS + [f"{k}-block-1" for k in _KINDS])
def test_class_tally_equals_the_all_rows_tensordot(monkeypatch, kind, block):
    monkeypatch.setattr(codes, "_PAIR_BLOCK", block)
    _assert_tally_is_the_reference(_hand_made_set(kind))


# the three ways the CWE's orbit pass can fall: it pairs every row (p = 3, full: the +-a rows
# already coincide), orbits on the A side, and orbits on the B side (more B rows than A rows)
_ORBIT_SIDES = {"plain": CodeSpec(3, 3, 3, 1, 1), "orbits-on-a": CodeSpec(13, 2, 2, 1, 0, punctured=True),
                "orbits-on-b": CodeSpec(11, 1, 2, 1, 3, punctured=True, mod2=(7, 1, 1))}


@pytest.mark.parametrize("side, block", [(s, codes._PAIR_BLOCK) for s in _ORBIT_SIDES] + [(s, 1) for s in _ORBIT_SIDES],
                         ids=list(_ORBIT_SIDES) + [f"{s}-block-1" for s in _ORBIT_SIDES])
def test_cwe_equals_the_reference_on_each_orbit_side(monkeypatch, side, block):
    # codeword by codeword too: at orbits-on-a a wrong symbol permutation (r d_i for r / d_i)
    # leaves the CWE multiset as it is
    monkeypatch.setattr(codes, "_PAIR_BLOCK", block)
    ds = build_defining_set(_ORBIT_SIDES[side])
    _assert_cwe_is_the_reference(ds)
    _assert_tally_is_the_reference(ds)


# (p, m1, m2) of the differential draw: p^K <= 7^4, 13^3, 23^3
_TALLY_SHAPES = [(p, m1, m2) for p, k_max in ((5, 4), (7, 4), (11, 3), (13, 3), (17, 3), (19, 3), (23, 3))
                 for m1 in range(1, k_max) for m2 in range(1, k_max + 1 - m1)]


@st.composite
def _tally_specs(draw):
    p, m1, m2 = draw(st.sampled_from(_TALLY_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CodeSpec(p, m1, m2, u=draw(st.integers(1, 3)), lam=draw(st.integers(0, p - 1)),
                    punctured=draw(st.booleans()), mod1=_random_modulus(rng, p, m1) if m1 > 1 else None,
                    mod2=_random_modulus(rng, p, m2) if m2 > 1 else None)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(_tally_specs())
def test_class_tally_equals_the_reference_on_random_moduli(spec):
    ds = build_defining_set(spec)
    _assert_tally_is_the_reference(ds)
    _assert_cwe_is_the_reference(ds)


def test_cwe_at_p_131_counts_every_codeword():
    # n = 132 points in 34 classes of at most 2 members: the orbit pass pairs 2 of the 66 A rows
    # over their ~100 nonempty bins.  The reference encodes all 131^2 codewords at once, as the
    # trace-form rows of a and of b read at the points
    ds = build_defining_set(CodeSpec(131, 1, 1, 1, 1))
    f1, f2 = ds.spec.field1, ds.spec.field2
    ta, tb = f1.trace_forms(np.arange(f1.q))[:, ds.xs], f2.trace_forms(np.arange(f2.q))[:, ds.ys]
    words = (ta[:, None, :] + tb[None]).reshape(-1, len(ds)) % 131
    keys = np.arange(len(words))[:, None] * 131 + words
    comps = np.bincount(keys.ravel(), minlength=len(words) * 131).reshape(-1, 131)
    want = Counter(map(tuple, comps.tolist()))
    res = complete_weight_enumerator(ds)
    assert res.comps.tolist() == sorted(map(list, want))
    assert res.freq.tolist() == [want[tuple(c)] for c in res.comps.tolist()]
    # the table reads the same orbit tally, codeword by codeword
    assert np.array_equal(res.table, comps.reshape(131, 131, 131))
    # and one codeword through `encode`
    word = encode(ds, f1.from_index(5), f2.from_index(7))
    assert np.bincount(word, minlength=131).tolist() == comps[5 * 131 + 7].tolist()


@pytest.mark.parametrize("spec", [CodeSpec(7, 2, 1, 1, 3, punctured=True),
                                  CodeSpec(5, 1, 2, 2, 0, punctured=True, mod2=(2, 4, 1))], ids=str)
def test_scaling_a_scales_the_codeword(spec):
    # linearity: the codeword of (c a, b) is c times the codeword of (a, b / c)
    ds = build_defining_set(spec)
    f1, f2 = spec.field1, spec.field2
    p = spec.p
    rng = np.random.default_rng(spec.p)
    for _ in range(30):
        a, b = f1.from_index(int(rng.integers(f1.q))), f2.from_index(int(rng.integers(f2.q)))
        c = int(rng.integers(1, p))
        scaled = encode(ds, f1.scalar(c) * a, b)
        assert scaled == [c * s % p for s in encode(ds, a, b / f2.scalar(c))]
        want = np.bincount(encode(ds, a, b / f2.scalar(c)), minlength=p)
        assert np.bincount(scaled, minlength=p).tolist() == want[np.arange(p) * pow(c, -1, p) % p].tolist()


def _lex_least_in_orbit(f, scalars):
    """Per index: the element is lex-smaller than each of its multiples c x, c in scalars."""
    d = f.digits().astype(np.int64)
    own = f.lex_rank(d)
    return np.all([f.lex_rank(c * d % f.p) > own for c in scalars], axis=0)


def test_puncture_filter_keeps_the_lex_least_of_each_orbit():
    # every field with p <= 13 and q <= 30 000, with its default and a random modulus, as the
    # x field and as the y field: the punctured set is the full one with the lex-least of each
    # {c x} kept off x = 0, and of each {c y} on x = 0 (c != 0 for lambda = 0, else c = +-1)
    rng = np.random.default_rng(30000)
    fields = [(p, m, None) for p in (3, 5, 7, 11, 13) for m in range(1, 10) if p**m <= 30000]
    fields += [(p, m, _random_modulus(rng, p, m)) for p, m, _ in fields if m > 1]
    assert len(fields) == 51
    for p, m, modulus in fields:
        f = FiniteField(p, m, modulus)
        for lam, scalars in ((0, range(2, p)), (1, (p - 1,))):
            keep = _lex_least_in_orbit(f, scalars)
            for spec in (CodeSpec(p, m, 1, 1, lam, mod1=modulus), CodeSpec(p, 1, m, 1, lam, mod2=modulus)):
                full = build_defining_set(spec)
                keep_x = keep if spec.m1 == m else _lex_least_in_orbit(spec.field1, scalars)
                keep_y = keep if spec.m2 == m else _lex_least_in_orbit(spec.field2, scalars)
                kept = np.where(full.xs != 0, keep_x[full.xs], keep_y[full.ys])
                punct = build_defining_set(replace(spec, punctured=True))
                assert np.array_equal(punct.xs, full.xs[kept]), (spec, modulus)
                assert np.array_equal(punct.ys, full.ys[kept]), (spec, modulus)


def _near_duplicates(rng, shape, hi):
    """Rows drawn from a few distinct ones, some then changed in one column: equal rows, and rows
    equal in every packed word but one."""
    n, cols = shape
    rows = rng.integers(0, hi, size=(max(n // 8, 1), cols), dtype=np.int64)[rng.integers(0, max(n // 8, 1), n)]
    changed = rng.random(n) < 0.3
    rows[changed, rng.integers(0, cols, int(changed.sum()))] = rng.integers(0, hi, int(changed.sum()))
    return rows


# radices whose 3rd and 2nd powers lie just below 2^63, one whose square lies between 2^63 and
# 2^64 (two digits of it would overflow an int64 key, not a uint64 one), and the largest, 2^63
_R3, _R2, _R2_OVER, _R1 = 2**21 - 1, 3037000499, 3719550786, 2**63
assert _R3**3 < 2**63 <= (_R3 + 1) ** 3 and _R2**2 < 2**63 <= (_R2 + 1) ** 2
assert 2**63 < _R2_OVER**2 < 2**64


def test_group_rows_is_unique_axis0():
    rng = np.random.default_rng(7)
    cases = [((50, 4), 3), ((200, 9), 2), ((1, 3), 5), ((0, 3), 2), ((30, 1), 4), ((0, 1), 3), ((1, 1), 1),
             ((169, 104), 201), ((60, 10), 201),  # 13 words of 8 columns; 10 columns at 8 per word
             ((40, 7), _R3), ((40, 5), _R2), ((40, 5), _R2_OVER), ((40, 3), _R1), ((40, 1), _R1)]
    for shape, hi in cases:
        for rows in (rng.integers(0, hi, size=shape, dtype=np.int64), _near_duplicates(rng, shape, hi)):
            if rows.size:
                rows.flat[rng.integers(0, rows.size, 3)] = hi - 1  # the largest digit of the radix
            uniq, inv = _group_rows(rows)
            want_uniq, want_inv = np.unique(rows, axis=0, return_inverse=True)
            assert np.array_equal(uniq, want_uniq), (shape, hi)
            assert np.array_equal(inv, want_inv.ravel()), (shape, hi)


def test_group_rows_refuses_negative_entries():
    with pytest.raises(ValueError):
        _group_rows(np.array([[0, 1], [-1, 0]]))


def test_we_and_dimension_has_no_dimension_without_a_power_of_p_kernel():
    assert we_and_dimension([3, 1], [5, 20], 3, 2, 5) == ({0: 5, 2: 20}, 1)
    assert we_and_dimension([3], [1], 3, 0, 5) == ({0: 1}, 0)
    assert we_and_dimension([1], [25], 3, 2, 5) == ({2: 25}, None)  # no zero codeword
    assert we_and_dimension([3, 1], [10, 15], 3, 2, 5) == ({0: 10, 2: 15}, None)


@pytest.mark.parametrize("zero_codewords", [0, 6])
def test_complete_weight_enumerator_refuses_a_zero_count_not_a_power_of_p(monkeypatch, zero_codewords):
    # planted histogram rows over the 3 x 3 messages of (3, 1, 1), n = 4, one class: every b in the
    # B row (2, 0, 0), which pairs each A row to twice itself.  For 6 messages, a = 1, 2 share the
    # row of the zero composition (4, 0, 0) and a = 0 has (2, 2, 0); for none, every a shares (2, 2, 0)
    if zero_codewords:
        side_a = (np.array([[2, 0, 0], [1, 1, 0]]), np.array([1, 0, 0]))
    else:
        side_a = (np.array([[1, 1, 0]]), np.zeros(3, dtype=np.int64))
    side_b = (np.array([[2, 0, 0]]), np.zeros(3, dtype=np.int64))
    monkeypatch.setattr(codes, "_grouped_histograms", lambda ds, budget: (0, side_a, side_b))
    with pytest.raises(AssertionError, match="not a power of p"):
        complete_weight_enumerator(build_defining_set(CodeSpec(3, 1, 1, 1, 1)))


@pytest.mark.parametrize("spec", [CodeSpec(3, 1, 1, 1, 1), CodeSpec(5, 2, 1, 1, 2), CodeSpec(13, 2, 2, 1, 0, True)],
                         ids=["3-1-1", "5-2-1", "13-2-2-punctured"])
def test_class_tally_refuses_a_composition_that_does_not_sum_to_n(monkeypatch, spec):
    # one count dropped from the first histogram row of each side: the other side's rows are all
    # paired, so some gathered composition sums to less than n
    real = codes._grouped_histograms

    def dropped(ds, budget):
        spent, (uniq_a, inv_a), (uniq_b, inv_b) = real(ds, budget)
        for uniq in (uniq_a, uniq_b):
            uniq[0, np.flatnonzero(uniq[0])[0]] -= 1
        return spent, (uniq_a, inv_a), (uniq_b, inv_b)

    ds = build_defining_set(spec)
    assert _class_tally(ds)[0].sum(axis=2).min() == len(ds)
    monkeypatch.setattr(codes, "_grouped_histograms", dropped)
    with pytest.raises(AssertionError, match="does not sum to n"):
        _class_tally(ds)
    with pytest.raises(AssertionError, match="does not sum to n"):
        complete_weight_enumerator(ds)


_PUNCTURED_P7_P13 = [CodeSpec(7, 2, 2, 1, 0, True), CodeSpec(7, 2, 2, 1, 3, True), CodeSpec(7, 1, 3, 2, 1, True),
                     CodeSpec(13, 1, 1, 1, 0, True), CodeSpec(13, 1, 2, 1, 5, True)]


@pytest.mark.parametrize("specs", [sweep_specs(), _PUNCTURED_P7_P13], ids=["default-sweep", "punctured-p7-p13"])
def test_measured_cwe_equals_a_plain_sum_over_the_class_tally(specs):
    for spec in specs:
        res = enumeration_of(spec)
        counts, inv_a, inv_b = _class_tally(defining_set_of(spec))
        n_row, n_other = Counter(inv_a.tolist()), Counter(inv_b.tolist())
        cwe, we = Counter(), Counter()
        for (i, row), j in product(enumerate(counts.tolist()), range(counts.shape[1])):
            cwe[tuple(row[j])] += n_row[i] * n_other[j]
            we[res.length - row[j][0]] += n_row[i] * n_other[j]
        dim = spec.K
        while spec.p ** (spec.K - dim) < we[0]:
            dim -= 1
        assert spec.p ** (spec.K - dim) == we[0], spec
        assert (res.we, res.dimension) == (dict(we), dim), spec
        assert res.comps.tolist() == sorted(map(list, cwe)), spec
        assert res.freq.dtype == np.int64
        assert res.freq.tolist() == [cwe[tuple(c)] for c in res.comps.tolist()], spec


def _random_modulus(rng, p, m):
    """A monic irreducible of degree m drawn at random, not the default one."""
    default = smallest_irreducible(p, m)
    while True:
        cand = tuple(int(c) for c in rng.integers(0, p, m)) + (1,)
        if cand != default and is_irreducible(cand, p):
            return cand


def _reference_histograms(f, members, labels, n_classes):
    """The class histograms counted element by element: (a z).trace() per member z and message a."""
    out = np.zeros((f.q, n_classes * f.p), dtype=np.int64)
    zs = [f.from_index(int(z)) for z in members]
    for a in f.elements():
        for z, c in zip(zs, labels):
            out[a.index, c * f.p + (a * z).trace()] += 1
    return out


# (p, m, most members): at most ~6k element products per field; at p = 191 the
# sums a_k y_k outgrow int16
_HISTOGRAM_FIELDS = [
    (3, 1, 3), (3, 2, 9), (3, 3, 27), (3, 4, 81), (3, 5, 40), (5, 1, 5), (5, 2, 25),
    (5, 3, 48), (5, 4, 8), (5, 5, 2), (7, 1, 7), (7, 2, 49), (7, 3, 16), (7, 4, 2),
    (11, 1, 11), (11, 2, 40), (11, 3, 4), (13, 1, 13), (13, 2, 36), (13, 3, 2), (191, 1, 30),
]


def test_class_histograms_equal_an_element_count():
    # random member sets with an empty and a singleton class, on non-default
    # moduli, against an element-by-element count
    rng = np.random.default_rng(8)
    splits = set()
    for p, m, most in _HISTOGRAM_FIELDS:
        f = FiniteField(p, m, _random_modulus(rng, p, m))
        n = int(rng.integers(max(1, most // 2), most + 1))
        members = rng.choice(f.q, size=n, replace=False)
        n_classes = int(rng.integers(3, 6))
        labels = rng.integers(0, n_classes - 2, size=n)
        labels[0] = n_classes - 2  # a singleton class; class n_classes - 1 stays empty
        got = f.class_histograms(members, labels, n_classes)
        assert np.array_equal(got, _reference_histograms(f, members, labels, n_classes)), (p, m)
        g, _ = histogram_split(n, n_classes, p, m)
        splits.add("g = 1" if g == 1 else "g = m" if g == m else "1 < g < m")
    # the cost rule picks each kind of split; with distinct members g = 1 only at m = 1
    assert splits == {"g = 1", "1 < g < m", "g = m"}


def test_every_histogram_split_gives_the_same_counts(monkeypatch):
    rng = np.random.default_rng(9)
    for p, m in [(3, 5), (5, 3), (7, 2)]:
        f = FiniteField(p, m, _random_modulus(rng, p, m))
        members = rng.choice(f.q, size=f.q // 2, replace=False)
        labels = rng.integers(0, 3, size=len(members))
        want = _reference_histograms(f, members, labels, 4)
        for g in range(1, m + 1):
            monkeypatch.setattr(gf, "histogram_split", lambda *args, g=g: (g, 0))
            assert np.array_equal(f.class_histograms(members, labels, 4), want), (p, m, g)


def test_punctured_we_is_transversal_invariant_but_cwe_is_not():
    # the adjudicated fact behind reporting no closed-form punctured CWE:
    # flipping one orbit representative preserves the weight enumerator and
    # changes the complete weight enumerator
    res = complete_weight_enumerator(build_defining_set(CodeSpec(3, 2, 2, 1, 0, punctured=True)))
    flipped = complete_weight_enumerator(_flipped_representative_set())
    assert flipped.we == res.we == {0: 1, 6: 60, 9: 20}
    assert flipped.cwe != res.cwe


def test_dump_grammar():
    ds = build_defining_set(CodeSpec(3, 1, 1, 1, 1))
    lines = list(dump_lines(ds))
    assert len(lines) == 9
    assert lines[0] == "a=0 b=0 c=" + "0" * len(ds)
    for line in lines:
        a_part, b_part, c_part = line.split(" ")
        assert a_part.startswith("a=") and b_part.startswith("b=") and c_part.startswith("c=")
        assert len(c_part) - 2 == len(ds)


def _names_in(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_measurement_route_reads_no_closed_form():
    # the two routes stay independent: codes imports only gf, and the exhaustive
    # sums, with every charsum function they call, name no closed form or solver
    package = Path(codes.__file__).parent
    for node in ast.walk(ast.parse((package / "codes.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "gf", ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not any(m.split(".")[0] == "weilcodes" for m in mods), ast.unparse(node)
    tree = ast.parse((package / "charsum.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo = [name for name in defs if name.endswith("_bruteforce")] + ["orthogonality_sum"]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_names_in(defs[name]) & defs.keys())
    assert {"_exhaustive_sum", "gauss_sum_bruteforce", "quad_sum_bruteforce", "weil_sum_bruteforce"} <= seen
    solver = {"_weil_dispatch", "solve_linear", "linearized_operator"}
    for name in seen:
        bad = {n for n in _names_in(defs[name]) if n.endswith("_closed") or n.startswith("gamma_") or n in solver}
        assert not bad, (name, bad)
