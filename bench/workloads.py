"""The benchmark's three workloads: inputs made from a seed, operations, and checks.

Each workload hands out rounds of operations.  A round has the same make-up
on every seed (the seed picks members within fixed strata, moduli, levels and
batches), so throughput, median and tail stay comparable between runs.  An
operation is one timed call into the program; its check runs afterwards,
untimed, and compares the output with an independent route or with a
property the method must have, never with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter

from weilcodes import bounds, charsum, cli, codes, gf, theory


class Op:
    """One operation: `run()` is timed, `check(result)` returns a list of problems."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def clear_caches():
    """Empty every lru_cache of the package, so the next operation starts cold."""
    for mod in (gf, codes, charsum, theory, bounds, cli):
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


MODULUS_TRIES = 200


def irreducible_moduli(rng, p, m):
    """Non-default monic irreducibles of degree m over F_p, by testing candidates.

    Every monic candidate is tested when there are at most MODULUS_TRIES of
    them, else MODULUS_TRIES seeded ones, so the work does not depend on the seed.
    """
    if p**m <= MODULUS_TRIES:
        lows = itertools.product(range(p), repeat=m)
    else:
        lows = (tuple(rng.randrange(p) for _ in range(m)) for _ in range(MODULUS_TRIES))
    default = gf.smallest_irreducible(p, m)
    found = {low + (1,) for low in lows if gf.is_irreducible(low + (1,), p)}
    found.discard(default)
    return sorted(found)


# ---------------------------------------------------------------------------
# verify through the CLI (sweep, large)
# ---------------------------------------------------------------------------

def verify_argv(spec: codes.CodeSpec) -> list[str]:
    argv = ["verify", "--p", str(spec.p), "--m1", str(spec.m1), "--m2", str(spec.m2),
            "--u", str(spec.u), f"--lambda={spec.lam}"]
    if spec.punctured:
        argv.append("--punctured")
    if spec.mod1 is not None:
        argv += ["--modulus1", ",".join(map(str, spec.mod1))]
    if spec.mod2 is not None:
        argv += ["--modulus2", ",".join(map(str, spec.mod2))]
    return argv + ["--format", "json", "--budget", "0"]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_report(spec: codes.CodeSpec, rc: int, text: str) -> list[str]:
    """Problems in one `verify --format json` report of `spec`.

    Measured and predicted facets are compared here again rather than only
    through the report's own match flags, and the measured CWE must obey what
    any CWE of a [n, K] code with nonzero coordinates obeys: frequencies
    summing to p^K, compositions summing to n, the WE as its weight
    projection, and the first two Pless moments.
    """
    p, K = spec.p, spec.K
    out = []
    if rc != 0:
        out.append(f"exit code {rc}")
    rep = json.loads(text)
    want = {"p": p, "m1": spec.m1, "m2": spec.m2, "u": spec.u, "lambda": spec.lam,
            "punctured": spec.punctured}
    if any(rep["spec"].get(k) != v for k, v in want.items()):
        out.append(f"report is for {rep['spec']}")
    for facet, flag in rep["match"].items():
        if flag is False:
            out.append(f"match flag {facet} is false")
    n = rep["length"]
    pred = rep["predicted"]
    for facet in ("length", "dimension", "we"):
        if rep[facet] != pred[facet]:
            out.append(f"measured {facet} differs from the prediction")
    if spec.punctured != (pred["cwe"] is None):
        out.append("the CWE must be predicted for full codes and only for them")
    elif pred["cwe"] is not None and rep["cwe"] != pred["cwe"]:
        out.append("measured CWE differs from the prediction")
    cwe = rep["cwe"]
    if sum(k for _, k in cwe) != p**K:
        out.append(f"CWE frequencies do not sum to p^K = {p**K}")
    if any(len(comp) != p or sum(comp) != n or k < 1 for comp, k in cwe):
        out.append(f"a composition does not sum to n = {n}")
    we = Counter()
    for comp, k in cwe:
        we[n - comp[0]] += k
    if [[w, we[w]] for w in sorted(we)] != rep["we"]:
        out.append("WE is not the weight projection of the CWE")
    if not bounds.pless_check(dict(we), n, K, p):
        out.append("Pless moments fail")
    zero = dict((tuple(c), k) for c, k in cwe).get((n,) + (0,) * (p - 1), 0)
    if zero != p ** (K - rep["dimension"]):
        out.append("dimension disagrees with the zero codeword's frequency")
    return out


def cli_op(spec: codes.CodeSpec, label: str) -> Op:
    argv = verify_argv(spec)
    return Op(label, lambda: run_cli(argv), lambda res: check_report(spec, *res))


def spec_label(spec: codes.CodeSpec) -> str:
    label = f"{spec.p},{spec.m1},{spec.m2},{spec.u},{spec.lam},{'P' if spec.punctured else 'F'}"
    if spec.mod1 is not None:
        label += f" mod1={','.join(map(str, spec.mod1))} mod2={','.join(map(str, spec.mod2))}"
    return label


class Sweep:
    """The 546 default specs of `verify --sweep ""`, one spec per operation, warm fields.

    Strata are (p, m1, m2, punctured, lambda is zero): 92 of them, with 3 to
    12 specs each (u, and lambda when nonzero, vary).  Round r takes member r
    of each stratum's seeded permutation, so every round has one spec per
    stratum, in a fixed order.
    """

    name = "sweep"
    layer = "cli"
    cold = False

    def __init__(self, seed: int):
        rng = random.Random(seed)
        strata = {}
        for spec in self.specs():
            key = (spec.p, spec.m1, spec.m2, spec.punctured, spec.lam == 0)
            strata.setdefault(key, []).append(spec)
        self.strata = [rng.sample(members, len(members)) for members in strata.values()]

    @staticmethod
    def specs():
        out = []
        for p in (3, 5):
            for m1, m2 in itertools.product(range(1, 4), range(1, 5)):
                if p ** (m1 + m2) > 5**6:
                    continue
                for u, lam, punct in itertools.product(range(1, 4), range(p), (False, True)):
                    out.append(codes.CodeSpec(p, m1, m2, u, lam, punct))
        return out

    def setup(self):
        """Build the sweep's fields and every table its operations read."""
        gf.cached_field.cache_clear()
        built = set()
        for members in self.strata:
            for spec in members:
                for f, e in ((spec.field1, 2), (spec.field2, spec.p**spec.u + 1)):
                    if (f, e) in built:
                        continue
                    built.add((f, e))
                    f.trace_of_products()
                    f.lex_order()
                    f.power_table(e)

    def round(self, r: int) -> list[Op]:
        specs = [members[r % len(members)] for members in self.strata]
        return [cli_op(spec, spec_label(spec)) for spec in specs]


# (p, m1, m2, u, lambda is zero, punctured): beyond the sweep (p in {7, 11, 13},
# or K up to 9), every m2/v regime, full and punctured; q1, q2 <= 2048.  Seven
# shapes lie on each side of three like middle ones, so that the median falls
# among those and the tail among the five heavy ones whatever the number of
# rounds.
LARGE_SHAPES = [
    # heavy, about 1 s: K = 9 punctured at p = 3
    (3, 5, 4, 1, True, True),    # m2/v = 4 (0 mod 4)
    (3, 5, 4, 3, False, True),   # m2/v = 4
    (3, 5, 4, 2, True, True),    # m2/v = 2
    (3, 4, 5, 2, False, True),   # m2/v = 5 (odd)
    (3, 6, 3, 1, True, True),    # m2/v = 3
    # upper middle, about 0.3 s
    (3, 6, 2, 1, False, False),  # 2 mod 4
    (13, 2, 2, 1, True, True),   # punctured lambda = 0: per-point orbit loop
    # middle, about 0.26 s
    (3, 3, 5, 1, True, False),   # odd
    (3, 3, 5, 1, True, False),
    (3, 3, 5, 1, True, False),
    # lower middle, about 0.22 s
    (3, 4, 4, 1, False, False),  # 0 mod 4, full
    (7, 3, 2, 1, True, True),
    # light, under 0.1 s
    (13, 1, 2, 1, True, False),
    (7, 1, 2, 1, False, False),
    (11, 2, 1, 1, False, True),
    (11, 1, 2, 1, True, False),
    (3, 1, 6, 3, False, False),  # m2/v = 2 with v = 3
]


class Large:
    """`verify` beyond the sweep's envelope, with seeded non-default moduli, cold fields.

    A round runs every shape once; the seed picks lambda within its class
    (zero or not) and both moduli, and orders the round.
    """

    name = "large"
    layer = "cli"
    cold = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool = {}

    def setup(self):
        """Find the irreducible moduli that operations draw from."""
        rng = random.Random(self.seed)
        need = sorted({(s[0], s[1]) for s in LARGE_SHAPES} | {(s[0], s[2]) for s in LARGE_SHAPES})
        self.pool = {pm: irreducible_moduli(rng, *pm) for pm in need}

    def round(self, r: int) -> list[Op]:
        ops = []
        for p, m1, m2, u, lam_zero, punct in LARGE_SHAPES:
            lam = 0 if lam_zero else self.rng.randrange(1, p)
            spec = codes.CodeSpec(p, m1, m2, u, lam, punct,
                                  self.rng.choice(self.pool[p, m1]), self.rng.choice(self.pool[p, m2]))
            ops.append(cli_op(spec, spec_label(spec)))
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# character sums and per-codeword prediction (oracle)
# ---------------------------------------------------------------------------

def run_oracle(p, m, modulus, triples, u0, table_spec):
    """Exhaustive and closed-form sums on one fresh field, gamma for every b, one predicted table."""
    field = gf.field_create(p, m, modulus)
    out = {
        "field": field,
        "u0": u0,
        "gauss": (charsum.gauss_sum_bruteforce(field), charsum.gauss_sum_closed(p, m)),
        "sums": [],
    }
    for ai, bi, u in triples:
        a, b = field.from_index(ai), field.from_index(bi)
        out["sums"].append(("quad", a, b, 0, charsum.quad_sum_bruteforce(field, a, b),
                            charsum.quad_sum_closed(field, a, b)))
        out["sums"].append(("weil", a, b, u, charsum.weil_sum_bruteforce(field, u, a, b),
                            charsum.weil_sum_closed(field, u, a, b)))
    out["gamma"] = [charsum.gamma_of(field, u0, field.from_index(bi)) for bi in range(field.q)]
    out["table"] = None if table_spec is None else theory.predicted_table(table_spec)
    return out


def _frobenius_matrix(field, k):
    """Coefficients of (X^i)^{p^k} for the power basis, by FFElement arithmetic."""
    rows = []
    for i in range(field.m):
        e = field.element(tuple(int(i == j) for j in range(field.m)))
        rows.append((e ** (field.p**k)).coeffs)
    return rows


def _apply(rows, coeffs, p):
    # x -> x^{p^k} is F_p-linear, so it acts on coefficients through the basis images
    out = [0] * len(rows)
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                out[j] += c * v
    return tuple(v % p for v in out)


def check_oracle(res, table_spec, pairs) -> list[str]:
    """Problems in one oracle result.

    Sums: exhaustive equals closed form.  gamma_b: each solution satisfies
    X^{p^{2u}} + X = -b^{p^u}, and b is unsolvable only in the m/v = 0 mod 4
    regime, for all but p^{m-2v} values of b.  Predicted table: its rows at
    seeded message pairs equal the compositions of the codewords `encode`
    produces on the measured defining set.
    """
    out = []
    field, u0 = res["field"], res["u0"]
    p, m = field.p, field.m
    if res["gauss"][0] != res["gauss"][1]:
        out.append("Gauss sum: brute != closed")
    for kind, a, b, u, brute, closed in res["sums"]:
        if brute != closed:
            out.append(f"{kind} sum at a={a.index} b={b.index} u={u}: brute != closed")
    frob_u = _frobenius_matrix(field, u0 % m)
    frob_2u = _frobenius_matrix(field, 2 * u0 % m)
    solvable = 0
    wrong = []
    for bi, gam in enumerate(res["gamma"]):
        if gam is None:
            continue
        solvable += 1
        lhs = field.element(_apply(frob_2u, gam.coeffs, p)) + gam
        rhs = -field.element(_apply(frob_u, field.coeffs_of(bi), p))
        if lhs != rhs:
            wrong.append(bi)
    if wrong:
        out.append(f"gamma_b for b={wrong[0]} does not solve the shift equation ({len(wrong)} such b)")
    v = math.gcd(m, u0)
    expect = p ** (m - 2 * v) if (m // v) % 4 == 0 else field.q
    if solvable != expect:
        out.append(f"{solvable} solvable b, expected {expect}")
    table = res["table"]
    if table is not None:
        ds = codes.build_defining_set(table_spec)
        n = len(ds)
        f1, f2 = table_spec.field1, table_spec.field2
        if table.shape != (f1.q, f2.q, p) or (table.sum(axis=2) != n).any():
            out.append("predicted table rows do not sum to the measured length")
        for ai, bi in pairs:
            word = codes.encode(ds, f1.from_index(ai), f2.from_index(bi))
            tally = Counter(word)
            if tuple(tally[r] for r in range(p)) != tuple(int(c) for c in table[ai, bi]):
                out.append(f"predicted row ({ai}, {bi}) differs from the encoded codeword")
    return out


# (p, m, triples per op, gamma exponent u0, predicted table).  47^2 and 3^7 lie
# above the 2048 table limit, where the sums fall back to per-element loops and
# no table can be built; the others lie below it.  Per round: four heavy
# operations, one upper, three middle (all 11^3) and five light, so that the
# median falls among the 11^3 operations and the tail among the heavy ones
# whatever the number of rounds.
ORACLE_SHAPES = [
    (3, 7, 1, 1, False),
    (47, 2, 2, 1, False),
    (47, 2, 2, 2, False),
    (47, 2, 2, 1, False),
    (43, 2, 4, 1, True),
    (11, 3, 4, 1, True),
    (11, 3, 4, 2, True),
    (11, 3, 4, 1, True),
    (3, 6, 4, 2, True),
    (5, 4, 4, 1, True),   # m/v = 4: b without gamma_b exist
    (7, 3, 4, 1, True),
    (3, 5, 4, 1, True),
    (17, 2, 4, 1, True),
]
ORACLE_TABLE_PAIRS = 12


class Oracle:
    """Character-sum and prediction oracle, one fresh field per operation, no code enumeration.

    A round runs every shape once; the seed picks each field's modulus (no
    repeat within a run until a shape's moduli run out), the (a, b) of each
    triple, the table spec's lambda and its message pairs.  The exponents u
    are fixed per shape (triple j uses u = 1 + j mod m), because the cost of
    the Frobenius powers grows with u.
    """

    name = "oracle"
    layer = "oracle"
    cold = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool = {}
        self.unused = {}

    def setup(self):
        """Find the irreducible moduli that operations draw from."""
        rng = random.Random(self.seed)
        self.pool = {}
        for p, m, *_ in ORACLE_SHAPES:
            if (p, m) not in self.pool:
                self.pool[p, m] = irreducible_moduli(rng, p, m)
        # a set-up repeated within the run finds the same pools and keeps the draw order
        self.unused = {pm: self.unused.get(pm, []) for pm in self.pool}

    def _modulus(self, pm):
        if not self.unused[pm]:
            self.unused[pm] = self.rng.sample(self.pool[pm], len(self.pool[pm]))
        return self.unused[pm].pop()

    def round(self, r: int) -> list[Op]:
        ops = [self._op(*shape) for shape in ORACLE_SHAPES]
        self.rng.shuffle(ops)
        return ops

    def _op(self, p, m, batch, u0, with_table):
        rng = self.rng
        q = p**m
        modulus = self._modulus((p, m))
        triples = [(rng.randrange(1, q), rng.randrange(q), 1 + j % m) for j in range(batch)]
        spec = pairs = None
        if with_table:
            spec = codes.CodeSpec(p, 1, m, u0, rng.randrange(p), mod2=modulus)
            pairs = [(0, 0)] + [(rng.randrange(p), rng.randrange(q)) for _ in range(ORACLE_TABLE_PAIRS - 1)]
        label = f"{p}^{m} mod={','.join(map(str, modulus))} u0={u0}"
        return Op(label,
                  lambda: run_oracle(p, m, modulus, triples, u0, spec),
                  lambda res: check_oracle(res, spec, pairs))


WORKLOADS = {w.name: w for w in (Sweep, Large, Oracle)}
