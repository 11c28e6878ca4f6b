"""Command-line surface: construct, enumerate, predict, verify, tables, griesmer.

Reports are exact throughout; match flags are plain equality of integers.
JSON output uses a fixed key order and contains no floats, so parsing and
re-serializing a report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from .bounds import classify
from .codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeSpec,
    DefiningSet,
    build_defining_set,
    check_budget,
    complete_weight_enumerator,
    dump_lines,
)
from .gf import GFError
from .theory import case_of, predict_cwe

# the twelve example rows reproduced by `tables`: (lambda, m1, m2, u)
_TABLE_ROWS = {
    "12": [(0, 3, 2, 2), (0, 2, 2, 2), (0, 2, 2, 1), (0, 2, 4, 2), (0, 2, 4, 3), (0, 3, 4, 1)],
    "13": [(-1, 3, 2, 2), (1, 2, 2, 2), (-1, 2, 2, 1), (1, 2, 4, 2), (-1, 2, 4, 1), (-1, 3, 4, 1)],
}


def fmt_we(we: dict[int, int]) -> str:
    parts = []
    for w in sorted(we):
        a = we[w]
        parts.append(str(a) if w == 0 else f"{a}z^{w}")
    return " + ".join(parts) if parts else "0"


def we_pairs(we):
    return [[w, we[w]] for w in sorted(we)]


def cwe_pairs(cwe):
    return [[list(comp), cwe[comp]] for comp in sorted(cwe)]


def spec_dict(spec: CodeSpec) -> dict:
    d = {
        "p": spec.p,
        "m1": spec.m1,
        "m2": spec.m2,
        "u": spec.u,
        "lambda": spec.lam,
        "punctured": spec.punctured,
    }
    if spec.mod1 is not None:
        d["modulus1"] = list(spec.mod1)
    if spec.mod2 is not None:
        d["modulus2"] = list(spec.mod2)
    return d


def _parse_modulus(text):
    return tuple(int(c) for c in text.split(",")) if text else None


def spec_from_args(args) -> CodeSpec:
    """The spec named on the command line, with both fields built, so a bad modulus fails here."""
    spec = CodeSpec(
        args.p,
        args.m1,
        args.m2,
        args.u,
        args.lam,
        punctured=args.punctured,
        mod1=_parse_modulus(args.modulus1),
        mod2=_parse_modulus(args.modulus2),
    )
    spec.field1, spec.field2  # building each field checks its modulus
    return spec


class _ArgumentError(Exception):
    """A command-line value the program cannot use (exit code 2)."""


@contextmanager
def _user_input():
    """Report a GFError or ValueError raised while checking user input as an _ArgumentError."""
    try:
        yield
    except (GFError, ValueError) as exc:
        raise _ArgumentError(str(exc)) from exc


def resolve_budget(args) -> int | None:
    """--budget flag beats WEILCODES_BUDGET beats the config file beats the default.

    A value of 0 or below means unlimited; a value that is not an integer
    is an _ArgumentError.
    """

    def norm(v, source):
        try:
            v = int(v)
        except ValueError:
            raise _ArgumentError(f"{source}: budget must be an integer, got {v!r}") from None
        return None if v <= 0 else v

    if getattr(args, "budget", None) is not None:
        return norm(args.budget, "--budget")
    env = os.environ.get("WEILCODES_BUDGET")
    if env is not None:
        return norm(env, "WEILCODES_BUDGET")
    path = getattr(args, "config", None)
    if path is None and os.path.exists("weilcodes.cfg"):
        path = "weilcodes.cfg"
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                if key.strip() == "budget":
                    return norm(value.strip(), path)
    return DEFAULT_BUDGET


def _parse_values(text, kind=int):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if "-" in piece and not piece.startswith("-"):
            lo, hi = piece.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(kind(piece))
    return out


def parse_sweep(text: str) -> list[CodeSpec]:
    """Sweep grammar: semicolon-separated key=value clauses.

    Keys: p, m1, m2, u (comma lists, a-b ranges), lambda (list or 'all'),
    punctured (full|punctured|both), maxq (cap on p^K).  Defaults are the
    verification sweep: p=3,5; m1=1-3; m2=1-4; u=1-3; lambda=all;
    punctured=both; maxq=15625.
    """
    opts = {
        "p": [3, 5],
        "m1": list(range(1, 4)),
        "m2": list(range(1, 5)),
        "u": list(range(1, 4)),
        "lambda": "all",
        "punctured": "both",
        "maxq": 5**6,
    }
    for clause in filter(None, (c.strip() for c in text.split(";"))):
        key, _, value = clause.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("p", "m1", "m2", "u"):
            opts[key] = _parse_values(value)
        elif key == "lambda":
            opts[key] = "all" if value == "all" else _parse_values(value)
        elif key == "punctured":
            if value not in ("full", "punctured", "both"):
                raise ValueError(f"punctured must be full|punctured|both, got {value!r}")
            opts[key] = value
        elif key == "maxq":
            opts[key] = int(value)
        else:
            raise ValueError(f"unknown sweep key {key!r}")
    punct_flags = {"full": [False], "punctured": [True], "both": [False, True]}[opts["punctured"]]
    specs = []
    for p in opts["p"]:
        lams = list(range(p)) if opts["lambda"] == "all" else [l % p for l in opts["lambda"]]
        for m1 in opts["m1"]:
            for m2 in opts["m2"]:
                if p ** (m1 + m2) > opts["maxq"]:
                    continue
                for u in opts["u"]:
                    for lam in lams:
                        for punct in punct_flags:
                            specs.append(CodeSpec(p, m1, m2, u, lam, punct))
    if not specs:
        raise ValueError(f"sweep {text!r} selects no specs")
    return specs


def _scan(spec: CodeSpec, budget) -> DefiningSet:
    """The defining set of spec, unless its q1 q2 messages alone exceed the budget.

    Every message costs at least one symbol evaluation, so this refuses only
    jobs that the q1 q2 n check of the enumeration refuses too.  The scan
    itself costs q1 + q2, but `construct` then materializes all n points,
    which this check bounds before they exist.
    """
    messages = spec.field1.q * spec.field2.q
    if budget is not None and messages > budget:
        raise BudgetExceeded(messages, budget, at_least=True)
    return build_defining_set(spec)


def run_report(spec: CodeSpec, budget) -> tuple[dict, bool]:
    """Measure, predict, compare; returns (report, all-facets-match)."""
    t0 = time.monotonic()
    ds = _scan(spec, budget)
    res = complete_weight_enumerator(ds, budget)
    pred = predict_cwe(spec)
    match = {
        "length": len(ds) == pred.length,
        "dimension": res.dimension == pred.dimension,
        "we": res.we == pred.we,
        "cwe": None if pred.cwe is None else res.cwe == pred.cwe,
    }
    d = res.min_distance
    gries = None
    if res.dimension >= 1 and d >= 1:
        rep = classify(spec.p, res.length, res.dimension, d)
        gries = {
            "p": rep.p,
            "n": rep.n,
            "k": rep.k,
            "d": rep.d,
            "g_of_d": rep.g_of_d,
            "max_d_allowed": rep.max_d_allowed,
            "classification": rep.classification,
        }
    report = {
        "spec": spec_dict(spec),
        "length": res.length,
        "dimension": res.dimension,
        "we": we_pairs(res.we),
        "cwe": cwe_pairs(res.cwe),
        "predicted": {
            "theorem": pred.source,
            "length": pred.length,
            "dimension": pred.dimension,
            "we": we_pairs(pred.we),
            "cwe": None if pred.cwe is None else cwe_pairs(pred.cwe),
        },
        "match": match,
        "griesmer": gries,
        "timing_ms": int((time.monotonic() - t0) * 1000),
    }
    ok = all(v for v in match.values() if v is not None)
    return report, ok


def json_text(obj, indent: str = "") -> str:
    """obj written as `json.dumps(obj, indent=2)` writes it, byte for byte.

    `indent` is the indentation of the line the value starts on.  Lists of
    ints and [composition, frequency] pairs, the bulk of every report, are
    joined in one step each; every other scalar goes to `json.dumps`, so
    `True` stays `true` (`type(x) is int` excludes bools).  Keys must be
    strings.  `json.dumps` with any indent runs its pure-Python encoder,
    about three times slower than this on the reports.
    """
    t = type(obj)
    if t is int:
        return str(obj)
    inner = indent + "  "
    if t is list or t is tuple:
        if not obj:
            return "[]"
        sep = ",\n" + inner
        if _ONLY_INT.issuperset(map(type, obj)):
            body = sep.join(map(str, obj))
        elif all(_is_pair(x) for x in obj):
            deeper = inner + "  "
            comp_sep = ",\n" + deeper + "  "
            body = sep.join(
                f"[\n{deeper}[\n{deeper}  {comp_sep.join(map(str, c))}\n{deeper}],\n{deeper}{k}\n{inner}]"
                for c, k in obj
            )
        else:
            body = sep.join([json_text(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if t is dict:
        if not obj:
            return "{}"
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        body = (",\n" + inner).join([f"{json.dumps(k)}: {json_text(v, inner)}" for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(obj)


_ONLY_INT = frozenset((int,))


def _is_pair(x) -> bool:
    """x is [composition, frequency]: a non-empty list of ints and an int."""
    return (
        type(x) is list
        and len(x) == 2
        and type(x[0]) is list
        and type(x[1]) is int
        and bool(x[0])
        and _ONLY_INT.issuperset(map(type, x[0]))
    )


def _emit(obj):
    print(json_text(obj))


def _spec_line(spec: CodeSpec) -> str:
    kind = "punctured" if spec.punctured else "full"
    return f"p={spec.p} m1={spec.m1} m2={spec.m2} u={spec.u} lambda={spec.lam} {kind}"


def cmd_construct(args) -> int:
    with _user_input():
        spec = spec_from_args(args)
    budget = resolve_budget(args)
    ds = _scan(spec, budget)
    if args.dump and args.format == "text":
        check_budget(ds, budget)  # the dump encodes every codeword
    key = case_of(spec)
    if args.format == "json":
        obj = {
            "spec": spec_dict(spec),
            "length": len(ds),
            "K": spec.K,
            "v": spec.v,
            "m2_over_v": spec.m2 // spec.v,
            "theorem": key.theorem,
            "points": [[list(x.coeffs), list(y.coeffs)] for x, y in ds.points],
        }
        _emit(obj)
    else:
        print(_spec_line(spec))
        print(f"length: {len(ds)}  (K={spec.K}, v={spec.v}, m2/v={spec.m2 // spec.v}, theorem {key.theorem})")
        if args.dump:
            for line in dump_lines(ds):
                print(line)
    return 0


def cmd_enumerate(args) -> int:
    with _user_input():
        spec = spec_from_args(args)
    budget = resolve_budget(args)
    res = complete_weight_enumerator(_scan(spec, budget), budget)
    if args.format == "json":
        _emit(
            {
                "spec": spec_dict(spec),
                "length": res.length,
                "dimension": res.dimension,
                "min_distance": res.min_distance,
                "we": we_pairs(res.we),
                "cwe": cwe_pairs(res.cwe),
            },
        )
    else:
        print(_spec_line(spec))
        print(f"[{res.length},{res.dimension},{res.min_distance}]")
        print(f"WE: {fmt_we(res.we)}")
        print("CWE:")
        for comp in sorted(res.cwe):
            print(f"  {comp}: {res.cwe[comp]}")
    return 0


def cmd_predict(args) -> int:
    with _user_input():
        spec = spec_from_args(args)
    pred = predict_cwe(spec)
    if args.format == "json":
        _emit(
            {
                "spec": spec_dict(spec),
                "theorem": pred.source,
                "length": pred.length,
                "dimension": pred.dimension,
                "min_distance": pred.min_distance,
                "we": we_pairs(pred.we),
                "cwe": None if pred.cwe is None else cwe_pairs(pred.cwe),
            },
        )
    else:
        print(_spec_line(spec))
        print(f"theorem {pred.source}: [{pred.length},{pred.dimension},{pred.min_distance}]")
        print(f"WE: {fmt_we(pred.we)}")
        if pred.cwe is not None:
            print("CWE:")
            for comp in sorted(pred.cwe):
                print(f"  {comp}: {pred.cwe[comp]}")
        else:
            print("CWE: not predictable for punctured codes (representative-dependent)")
    return 0


def cmd_verify(args) -> int:
    budget = resolve_budget(args)
    with _user_input():
        specs = parse_sweep(args.sweep) if args.sweep is not None else [spec_from_args(args)]
    reports = []
    all_ok = True
    for spec in specs:
        report, ok = run_report(spec, budget)
        reports.append(report)
        all_ok &= ok
        if args.format == "text":
            we = {w: a for w, a in report["we"]}
            gr = report["griesmer"]
            label = gr["classification"] if gr else "-"
            print(
                f"{_spec_line(spec)}: [{report['length']},{report['dimension']},"
                f"{min((w for w in we if w > 0), default=0)}] theorem "
                f"{report['predicted']['theorem']} griesmer={label} "
                f"match={'yes' if ok else 'NO'} ({report['timing_ms']}ms)"
            )
            if not args.sweep:
                print(f"WE: {fmt_we(we)}")
    if args.format == "json":
        _emit(reports if args.sweep is not None else reports[0])
    elif args.sweep is not None:
        status = "all match" if all_ok else "MISMATCH"
        print(f"{len(reports)} specs verified: {status}")
    return 0 if all_ok else 1


def cmd_tables(args) -> int:
    which = args.which
    base = which.rstrip("p")
    punctured = which.endswith("p")
    budget = resolve_budget(args)
    rows = []
    all_ok = True
    for lam, m1, m2, u in _TABLE_ROWS[base]:
        spec = CodeSpec(3, m1, m2, u, lam, punctured)
        res = complete_weight_enumerator(_scan(spec, budget), budget)
        pred = predict_cwe(spec)
        ok = res.we == pred.we and res.length == pred.length and res.dimension == pred.dimension
        all_ok &= ok
        rows.append((spec, res, pred, ok))
    if args.format == "json":
        _emit(
            [
                {
                    "spec": spec_dict(spec),
                    "parameters": [res.length, res.dimension, res.min_distance],
                    "we": we_pairs(res.we),
                    "theorem": pred.source,
                    "match": ok,
                }
                for spec, res, pred, ok in rows
            ],
        )
    else:
        title = f"Table {base}{'°' if punctured else ''} (recomputed)"
        print(title)
        print(f"{'λ':>2} {'m1':>3} {'m2':>3} {'u':>2} {'m2/v':>4} {'K':>2}  parameters      weight enumerator")
        for spec, res, pred, ok in rows:
            params = f"[{res.length},{res.dimension},{res.min_distance}]"
            print(
                f"{spec.lam:>2} {spec.m1:>3} {spec.m2:>3} {spec.u:>2} "
                f"{spec.m2 // spec.v:>4} {spec.K:>2}  {params:<15} {fmt_we(res.we)}"
                + ("" if ok else "   [MISMATCH]")
            )
    return 0 if all_ok else 1


def cmd_griesmer(args) -> int:
    with _user_input():
        rep = classify(args.p, args.n, args.k, args.d)
    if args.format == "json":
        _emit(
            {
                "p": rep.p,
                "n": rep.n,
                "k": rep.k,
                "d": rep.d,
                "g_of_d": rep.g_of_d,
                "max_d_allowed": rep.max_d_allowed,
                "classification": rep.classification,
            },
        )
    else:
        print(
            f"[{rep.n},{rep.k},{rep.d}] over F_{rep.p}: g({rep.k},{rep.d}) = {rep.g_of_d}, "
            f"largest Griesmer-feasible d = {rep.max_d_allowed}: {rep.classification}"
        )
    return 0


def _add_spec_args(sub, need_spec=True):
    if need_spec:
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--m1", type=int, required=True)
        sub.add_argument("--m2", type=int, required=True)
        sub.add_argument("--u", type=int, required=True)
        sub.add_argument("--lambda", dest="lam", type=int, required=True,
                         help="level of the defining set; any integer, reduced mod p")
        sub.add_argument("--punctured", action="store_true")
        sub.add_argument("--modulus1", help="comma-separated coefficients, low degree first")
        sub.add_argument("--modulus2", help="comma-separated coefficients, low degree first")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--budget", type=int, help="symbol-evaluation budget; 0 = unlimited")
    sub.add_argument("--config", help="key=value config file (budget=...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilcodes",
        description="Construct trace-defined p-ary codes, enumerate and predict their "
        "(complete) weight enumerators, and verify the two against each other.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="build the defining set")
    _add_spec_args(sub)
    sub.add_argument("--dump", action="store_true", help="emit one line per codeword")
    sub.set_defaults(func=cmd_construct)

    sub = subs.add_parser("enumerate", help="brute-force weight enumerators")
    _add_spec_args(sub)
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("predict", help="closed-form weight enumerators")
    _add_spec_args(sub)
    sub.set_defaults(func=cmd_predict)

    sub = subs.add_parser("verify", help="measured vs predicted comparison")
    sub.add_argument("--p", type=int)
    sub.add_argument("--m1", type=int)
    sub.add_argument("--m2", type=int)
    sub.add_argument("--u", type=int)
    sub.add_argument("--lambda", dest="lam", type=int)
    sub.add_argument("--punctured", action="store_true")
    sub.add_argument("--modulus1")
    sub.add_argument("--modulus2")
    sub.add_argument("--sweep", help="range spec, e.g. 'p=3;m1=1-2;m2=1-3;u=1-2;lambda=all'")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--budget", type=int)
    sub.add_argument("--config")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("tables", help="recompute the example tables")
    sub.add_argument("--which", choices=("12", "12p", "13", "13p"), required=True)
    _add_spec_args(sub, need_spec=False)
    sub.set_defaults(func=cmd_tables)

    sub = subs.add_parser("griesmer", help="Griesmer bound classification")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_griesmer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.sweep is None:
        missing = [k for k in ("p", "m1", "m2", "u", "lam") if getattr(args, k) is None]
        if missing:
            parser.error("verify needs --p --m1 --m2 --u --lambda (or --sweep)")
    try:
        return args.func(args)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
