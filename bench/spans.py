"""Spans for the traced run, recorded around calls into the program's layers.

`Tracer.install()` replaces public functions of `weilcodes` (and
`FiniteField.__init__` and its table methods) with wrappers that open a span,
call the original, and close the span.  Spans live in memory and are written
once the run ends.  Untraced runs never install the wrappers, so their
timings carry no tracing cost.

A layer's self time is its span's duration minus the time its child spans
cover; per-layer metrics are sums of self time and of counts recorded on the
spans, divided by the number of measured operations.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

# FiniteField methods that build (and then cache) a lookup table
_TABLE_METHODS = (
    "mul_table",
    "trace_table",
    "trace_of_products",
    "power_table",
    "eta_table",
    "frob_table",
    "lex_order",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self.stack = []  # indices of the spans open right now
        self.op = None  # id of the operation being recorded; None records nothing
        self._restore = []
        self._tables = {}  # id(array) -> weak reference, for tables already counted

    # -- spans ---------------------------------------------------------------

    def open(self, name, op=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op if op is None else op, {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key, n=1):
        """Add n to counter `key` of the innermost open span."""
        if self.stack:
            counts = self.spans[self.stack[-1]][5]
            counts[key] = counts.get(key, 0) + n

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr, name, measure=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return orig(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if measure is not None:
                tracer.spans[idx][5].update(measure(args, out))
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _count_calls(self, owner, attr, key):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.count(key)
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _table_bytes(self, args, out):
        # a table method returns its cached array on every call after the first
        seen = self._tables.get(id(out))
        if seen is not None and seen() is out:
            return {}
        self._tables[id(out)] = weakref.ref(out)
        return {"bytes": int(out.nbytes)}

    def install(self):
        from weilcodes import charsum, cli, codes, gf, theory

        def q_of(args, out):
            return {"terms": args[0].q}

        # cli.main reaches the codes/theory/bounds layers through names it imported
        self.wrap(cli, "build_defining_set", "codes.defset", lambda a, out: {"points": len(out)})
        self.wrap(
            cli,
            "complete_weight_enumerator",
            "codes.cwe",
            lambda a, out: {"rows": out.table.shape[0] * out.table.shape[1], "classes": len(out.cwe)},
        )
        self.wrap(
            codes,
            "symbol_count_table",
            "codes.tally",
            lambda a, out: {"evals": out.shape[0] * out.shape[1] * max(len(a[0]), 1)},
        )
        self.wrap(cli, "predict_cwe", "theory.predict")
        self.wrap(cli, "classify", "bounds.classify")
        self.wrap(theory, "predicted_table", "theory.table",
                  lambda a, out: {"pairs": out.shape[0] * out.shape[1]})
        for fn in ("gauss_sum_bruteforce", "quad_sum_bruteforce", "weil_sum_bruteforce"):
            self.wrap(charsum, fn, "charsum.brute", q_of)
        for fn in ("gauss_sum_closed", "quad_sum_closed", "weil_sum_closed"):
            self.wrap(charsum, fn, "charsum.closed", lambda a, out: {"calls": 1})
        self.wrap(charsum, "gamma_of", "charsum.gamma")
        self._count_calls(charsum, "solve_linear", "solves")
        self.wrap(gf.FiniteField, "__init__", "gf.field", lambda a, out: {"fields": 1})
        self.wrap(gf, "is_irreducible", "gf.irreducible")
        for meth in _TABLE_METHODS:
            self.wrap(gf.FiniteField, meth, "gf.table", self._table_bytes)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span: (name, op id, self seconds, counts, parent's name)."""
        child = defaultdict(float)
        for name, t0, t1, parent, op, counts in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [
            (name, op, (t1 - t0) - child[i], counts, None if parent is None else self.spans[parent][0])
            for i, (name, t0, t1, parent, op, counts) in enumerate(self.spans)
        ]

    def write(self, path, t_origin):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, counts in self.spans:
                rec = {"name": name, "start": t0 - t_origin, "end": t1 - t_origin,
                       "parent": parent, "op": op}
                rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer, n_ops, setup_reps):
    """Per-operation layer metrics from the spans of measured operations.

    Set-up spans (op id "setup") are reported apart, per set-up repetition.
    """
    ms = defaultdict(float)
    cnt = defaultdict(int)
    setup_ms = 0.0
    setup_cnt = defaultdict(int)
    for name, op, self_s, counts, parent in tracer.self_times():
        if op == "setup":
            if name.startswith("gf."):
                setup_ms += self_s * 1000
                for k, v in counts.items():
                    setup_cnt[k] += v
            continue
        ms[name] += self_s * 1000
        if name == "charsum.closed" and parent == name:
            continue  # a closed form evaluated inside another one is not a separate call
        for k, v in counts.items():
            cnt[name, k] += v
    values = {
        "gf.tables_ms": (ms["gf.field"] + ms["gf.irreducible"] + ms["gf.table"], "ms"),
        "gf.table_bytes": (cnt["gf.table", "bytes"], "bytes"),
        "gf.fields": (cnt["gf.field", "fields"], "count"),
        "codes.tally_ms": (ms["codes.tally"], "ms"),
        "codes.symbol_evals": (cnt["codes.tally", "evals"], "count"),
        "codes.cwe_ms": (ms["codes.cwe"], "ms"),
        "codes.cwe_rows": (cnt["codes.cwe", "rows"], "count"),
        "codes.cwe_classes": (cnt["codes.cwe", "classes"], "count"),
        "codes.defset_ms": (ms["codes.defset"], "ms"),
        "codes.points": (cnt["codes.defset", "points"], "count"),
        "charsum.brute_ms": (ms["charsum.brute"], "ms"),
        "charsum.brute_terms": (cnt["charsum.brute", "terms"], "count"),
        "charsum.closed_ms": (ms["charsum.closed"], "ms"),
        "charsum.closed_calls": (cnt["charsum.closed", "calls"], "count"),
        "charsum.gamma_ms": (ms["charsum.gamma"], "ms"),
        "charsum.gamma_solves": (cnt["charsum.gamma", "solves"], "count"),
        "theory.predict_ms": (ms["theory.predict"], "ms"),
        "theory.table_ms": (ms["theory.table"], "ms"),
        "theory.table_pairs": (cnt["theory.table", "pairs"], "count"),
        "bounds.classify_ms": (ms["bounds.classify"], "ms"),
        "cli.self_ms": (ms["cli"], "ms"),
        "cli.json_bytes": (cnt["cli", "json_bytes"], "bytes"),
    }
    out = {k: {"value": v / n_ops, "unit": u} for k, (v, u) in values.items()}
    out["gf.setup_tables_ms"] = {"value": setup_ms / setup_reps, "unit": "ms"}
    out["gf.setup_table_bytes"] = {"value": setup_cnt["bytes"] / setup_reps, "unit": "bytes"}
    out["gf.setup_fields"] = {"value": setup_cnt["fields"] / setup_reps, "unit": "count"}
    return out
