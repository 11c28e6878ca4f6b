"""Defining sets, encoding, and exhaustive enumeration against frozen oracles."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import sweep_specs

from weilcodes import codes
from weilcodes.codes import (
    BudgetExceeded,
    CodeSpec,
    DefiningSet,
    _class_histograms,
    _group_rows,
    _histogram_split,
    build_defining_set,
    complete_weight_enumerator,
    dump_lines,
    encode,
    symbol_count_table,
)
from weilcodes.gf import FieldMismatch, FiniteField, is_irreducible, smallest_irreducible


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
    # 9 * 9 keys, and the 4 x 3 distinct row pairs cost 3 classes * 3^2 each
    ds = build_defining_set(CodeSpec(3, 2, 2, 1, 0))
    histograms = 18 + 72 + 81
    total = histograms + 4 * 3 * 3 * 9
    with pytest.raises(BudgetExceeded, match="needs at least 171 operations") as exc:
        complete_weight_enumerator(ds, budget=histograms - 1)
    assert exc.value.required == histograms
    with pytest.raises(BudgetExceeded, match="needs 495 operations") as exc:
        complete_weight_enumerator(ds, budget=total - 1)
    assert exc.value.required == total
    assert complete_weight_enumerator(ds, budget=total).length == 20
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
        got = _class_histograms(f, members, labels, n_classes)
        assert np.array_equal(got, _reference_histograms(f, members, labels, n_classes)), (p, m)
        g, _ = _histogram_split(n, n_classes, p, m)
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
            monkeypatch.setattr(codes, "_histogram_split", lambda *args, g=g: (g, 0))
            assert np.array_equal(_class_histograms(f, members, labels, 4), want), (p, m, g)


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
