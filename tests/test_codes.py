"""Defining sets, encoding, and exhaustive enumeration against frozen oracles."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import sweep_specs

from weilcodes.codes import (
    BudgetExceeded,
    CodeSpec,
    DefiningSet,
    _group_rows,
    build_defining_set,
    complete_weight_enumerator,
    dump_lines,
    encode,
    symbol_count_table,
)
from weilcodes.gf import FieldMismatch


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
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    with pytest.raises(BudgetExceeded) as exc:
        complete_weight_enumerator(ds, budget=100)
    assert exc.value.required == 81 * 20
    # unlimited budget works
    assert complete_weight_enumerator(ds, budget=None).length == 20


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
    xs[0] = spec.field1.mul_i(2, int(xs[0]))
    ys[0] = spec.field2.mul_i(2, int(ys[0]))
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
    assert table.dtype == np.int64
    assert np.array_equal(table, want)
    # the CWE weighs each class pair by its number of messages instead of
    # reading the table; the table itself is expanded only when read
    res = complete_weight_enumerator(ds)
    cwe = Counter(tuple(int(c) for c in row) for row in table.reshape(-1, p))
    assert res.cwe == cwe
    assert list(res.cwe) == sorted(cwe)
    assert all(type(k) is int for k in res.cwe.values())
    assert res.table.dtype == np.int64
    assert np.array_equal(res.table, table)


def test_group_rows_is_unique_axis0():
    rng = np.random.default_rng(7)
    for shape, hi in [((50, 4), 3), ((200, 9), 2), ((1, 3), 5), ((0, 3), 2), ((30, 1), 4)]:
        rows = rng.integers(0, hi, size=shape)
        uniq, inv = _group_rows(rows)
        want_uniq, want_inv = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(inv, want_inv.ravel())


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
