"""Command-line surface: construct, enumerate, predict, verify, tables, griesmer.

Reports are exact throughout; match flags are plain equality of integers.
JSON output uses a fixed key order and contains no floats, so parsing and
re-serializing a report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext

import numpy as np

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
    min_weight,
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


def measured_cwe_rows(res) -> np.ndarray:
    """The measured CWE as one (rows, p + 1) int64 array: each composition, then its frequency.

    `json_text` writes it as the [composition, frequency] pairs, in the
    tally's lexicographic order.
    """
    return np.column_stack((res.comps, res.freq))


def predicted_cwe_pairs(pred):
    """The predicted CWE as sorted pairs, or None where it is not predicted (punctured codes)."""
    if pred.cwe is None:
        return None
    return [[list(comp), pred.cwe[comp]] for comp in sorted(pred.cwe)]


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


def _parse_modulus(text, flag):
    """The coefficients of a --modulus1/--modulus2 value, or None where the flag is absent."""
    if text is None:
        return None
    if not text.strip():
        raise ValueError(f"--{flag} is empty: give the coefficients, low degree first")
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag}: {text!r} is not a comma-separated list of integers") from None


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
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.reason if isinstance(exc, UnicodeDecodeError) else exc.strerror
            raise _ArgumentError(f"cannot read config file {path}: {reason}") from None
        for line in lines:
            key, _, value = line.split("#", 1)[0].partition("=")
            if key.strip() == "budget":
                return norm(value.strip(), path)
    return DEFAULT_BUDGET


def _parse_values(key, text):
    """The integers of the sweep clause key=text: comma-separated integers and lo-hi ranges."""
    out = []
    for piece in map(str.strip, text.split(",")):
        ends = piece.split("-") if "-" in piece and not piece.startswith("-") else [piece, piece]
        try:
            lo, hi = map(int, ends)
        except ValueError:
            raise ValueError(f"sweep {key}: {piece!r} is neither an integer nor a lo-hi range") from None
        if lo > hi:
            raise ValueError(f"range {piece!r} is reversed")
        out.extend(range(lo, hi + 1))
    return out


def parse_sweep(text: str) -> list[CodeSpec]:
    """Sweep grammar: semicolon-separated key=value clauses.

    Keys: p, m1, m2, u (comma lists, a-b ranges), lambda (list or 'all'),
    punctured (full|punctured|both), maxq (cap on p^K).  Defaults are the
    verification sweep: p=3,5; m1=1-3; m2=1-4; u=1-3; lambda=all;
    punctured=both; maxq=15625.  A spec selected twice (say lambda=1,4 at
    p = 3) is kept once, at its first place.
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
            opts[key] = _parse_values(key, value)
        elif key == "lambda":
            opts[key] = "all" if value == "all" else _parse_values(key, value)
        elif key == "punctured":
            if value not in ("full", "punctured", "both"):
                raise ValueError(f"punctured must be full|punctured|both, got {value!r}")
            opts[key] = value
        elif key == "maxq":
            try:
                opts[key] = int(value)
            except ValueError:
                raise ValueError(f"sweep maxq: {value!r} is not an integer") from None
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
    return list(dict.fromkeys(specs))


def specs_from_args(args) -> list[CodeSpec]:
    """The one spec that the flags name, or the specs of --sweep; a missing or unusable value is an _ArgumentError.

    A field given its modulus is built here, so a bad modulus fails here; a
    default modulus cannot fail, so that field waits for its first use
    (predict makes none).
    """
    named = (args.p, args.m1, args.m2, args.u, args.lam)
    sweep = getattr(args, "sweep", None)
    if sweep is not None:
        if any(v is not None for v in named + (args.punctured or None, args.modulus1, args.modulus2)):
            raise _ArgumentError("--sweep names its own specs: give none of --p --m1 --m2 --u --lambda --punctured "
                                 "--modulus1 --modulus2")
        with _user_input():
            return parse_sweep(sweep)
    missing = [flag for flag, v in zip(("--p", "--m1", "--m2", "--u", "--lambda"), named) if v is None]
    if missing:
        raise _ArgumentError(f"missing {' '.join(missing)}" + (" (or --sweep)" if "sweep" in args else ""))
    with _user_input():
        spec = CodeSpec(*named, punctured=args.punctured, mod1=_parse_modulus(args.modulus1, "modulus1"),
                        mod2=_parse_modulus(args.modulus2, "modulus2"))
        if spec.mod1 is not None:
            spec.field1
        if spec.mod2 is not None:
            spec.field2
    return [spec]


def _scan(spec: CodeSpec, budget) -> DefiningSet:
    """The defining set of spec, unless its scan of q1 + q2 level values alone exceeds the budget.

    Every charge that follows (the enumeration's, the points listed by
    `construct`, the codewords of `--dump`) starts from those q1 + q2, so
    this refuses only jobs that a later check refuses too.  They are charged
    as p^m1 + p^m2, before any field is built.
    """
    check_budget(spec.p**spec.m1 + spec.p**spec.m2, budget, at_least=True)
    return build_defining_set(spec)


def _measure(spec: CodeSpec, budget):
    """The exhaustive enumeration of spec's code, charged to the budget."""
    return complete_weight_enumerator(_scan(spec, budget), budget)


def run_report(spec: CodeSpec, budget) -> tuple[dict, bool]:
    """Measure, predict, compare; returns (report, all-facets-match)."""
    t0 = time.monotonic()
    res = _measure(spec, budget)
    pred = predict_cwe(spec)
    match = {
        "length": res.length == pred.length,
        "dimension": res.dimension == pred.dimension,
        "we": res.we == pred.we,
        # predicted only for full codes, whose CWEs are small enough to read as a dict
        "cwe": None if pred.cwe is None else res.cwe == pred.cwe,
    }
    d = res.min_distance
    gries = None
    if res.dimension >= 1 and d >= 1:
        # the dataclass's field order is the report's key order
        gries = dict(vars(classify(spec.p, res.length, res.dimension, d)))
    report = {
        "spec": spec_dict(spec),
        "length": res.length,
        "dimension": res.dimension,
        "we": we_pairs(res.we),
        "cwe": measured_cwe_rows(res),
        "predicted": {
            "theorem": pred.source,
            "length": pred.length,
            "dimension": pred.dimension,
            "we": we_pairs(pred.we),
            "cwe": predicted_cwe_pairs(pred),
        },
        "match": match,
        "griesmer": gries,
        "timing_ms": int((time.monotonic() - t0) * 1000),
    }
    ok = all(v for v in match.values() if v is not None)
    return report, ok


def _parameters(report: dict) -> list[int]:
    """[n, k, d] of a report's measured code."""
    return [report["length"], report["dimension"], min_weight(w for w, _ in report["we"])]


def json_text(obj, indent: str = "") -> str:
    """obj written as `json.dumps(obj, indent=2)` writes it, byte for byte.

    `indent` is the indentation of the line the value starts on.  A list of
    ints is written in one step.  A 2-d int array of shape (rows, L + 1),
    L >= 1, stands for the list of pairs [row[:L], row[L]] (the measured CWE,
    `measured_cwe_rows`); it is written from one %-template, a copy of the
    L + 1 slots of a pair per row, filled with the raveled values, and its
    items are not checked one by one.  Every other scalar goes to
    `json.dumps`, so `True` stays `true` (`type(x) is int` excludes bools).
    Keys must be strings.  `json.dumps` with any indent runs its pure-Python
    encoder, several times slower than this on the reports.
    """
    t = type(obj)
    if t is int:
        return str(obj)
    inner = indent + "  "
    if t is np.ndarray:
        rows, width = obj.shape
        if not rows:
            return "[]"
        deeper = inner + "  "
        slots = (",\n" + deeper + "  ").join(["%d"] * (width - 1))
        pair = f"[\n{deeper}[\n{deeper}  {slots}\n{deeper}],\n{deeper}%d\n{inner}]"
        body = (",\n" + inner).join([pair] * rows) % tuple(obj.ravel().tolist())
        return f"[\n{inner}{body}\n{indent}]"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        sep = ",\n" + inner
        if _ONLY_INT.issuperset(map(type, obj)):
            body = sep.join(map(str, obj))
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


# characters per write: CPython writes at most 0x7ffff000 bytes in one call and drops the rest
# with no error; the JSON is ASCII, one byte per character.  A piece is also what a JSON sweep
# reads back from its temporary file at a time, so it is small
_PIECE = 1 << 20


def _emit(*texts):
    """Print the texts one after another, then a newline, in writes of at most _PIECE characters."""
    for text in texts:
        for lo in range(0, len(text), _PIECE):
            sys.stdout.write(text[lo : lo + _PIECE])
    sys.stdout.write("\n")


def _spec_line(spec: CodeSpec) -> str:
    kind = "punctured" if spec.punctured else "full"
    return f"p={spec.p} m1={spec.m1} m2={spec.m2} u={spec.u} lambda={spec.lam} {kind}"


def cmd_construct(args) -> int:
    spec, = specs_from_args(args)
    budget = resolve_budget(args)
    ds = _scan(spec, budget)
    q1, q2 = spec.field1.q, spec.field2.q
    if args.format == "json":
        check_budget(q1 + q2 + len(ds), budget)  # the scan, then every point listed
    elif args.dump:
        check_budget(q1 * q2 * max(len(ds), 1), budget)  # the dump encodes every codeword
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
        _emit(json_text(obj))
    else:
        print(_spec_line(spec))
        print(f"length: {len(ds)}  (K={spec.K}, v={spec.v}, m2/v={spec.m2 // spec.v}, theorem {key.theorem})")
        if args.dump:
            for line in dump_lines(ds):
                print(line)
    return 0


def cmd_enumerate(args) -> int:
    spec, = specs_from_args(args)
    budget = resolve_budget(args)
    res = _measure(spec, budget)
    if args.format == "json":
        _emit(json_text(
            {
                "spec": spec_dict(spec),
                "length": res.length,
                "dimension": res.dimension,
                "min_distance": res.min_distance,
                "we": we_pairs(res.we),
                "cwe": measured_cwe_rows(res),
            },
        ))
    else:
        print(_spec_line(spec))
        print(f"[{res.length},{res.dimension},{res.min_distance}]")
        print(f"WE: {fmt_we(res.we)}")
        print("CWE:")
        for comp, k in zip(res.comps.tolist(), res.freq.tolist()):
            print(f"  {tuple(comp)}: {k}")
    return 0


def cmd_predict(args) -> int:
    spec, = specs_from_args(args)
    # predict_cwe builds up to p + 2 compositions of p symbols
    check_budget((spec.p + 2) * spec.p, resolve_budget(args), stage="prediction")
    pred = predict_cwe(spec)
    if args.format == "json":
        _emit(json_text(
            {
                "spec": spec_dict(spec),
                "theorem": pred.source,
                "length": pred.length,
                "dimension": pred.dimension,
                "min_distance": pred.min_distance,
                "we": we_pairs(pred.we),
                "cwe": predicted_cwe_pairs(pred),
            },
        ))
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
    specs = specs_from_args(args)
    budget = resolve_budget(args)
    single = args.sweep is None
    all_ok = True
    # a JSON sweep writes each report's text to a temporary file, so that memory holds neither
    # its arrays nor its text, and copies the file to stdout only when every spec is done: a
    # budget refusal part way prints nothing (json.dumps escapes every non-ASCII character)
    json_sweep = args.format == "json" and not single
    with tempfile.TemporaryFile("w+", encoding="ascii") if json_sweep else nullcontext() as spill:
        for i, spec in enumerate(specs):
            report, ok = run_report(spec, budget)
            all_ok &= ok
            if args.format == "json":
                if not single:  # json_text of the report list, item by item
                    spill.write(",\n  " if i else "[\n  ")
                    spill.write(json_text(report, "  "))
            else:
                n, k, d = _parameters(report)
                gr = report["griesmer"]
                label = gr["classification"] if gr else "-"
                print(
                    f"{_spec_line(spec)}: [{n},{k},{d}] theorem "
                    f"{report['predicted']['theorem']} griesmer={label} "
                    f"match={'yes' if ok else 'NO'} ({report['timing_ms']}ms)"
                )
                if single:
                    print(f"WE: {fmt_we(dict(report['we']))}")
        if args.format == "json":
            if single:
                _emit(json_text(report))
            else:
                spill.write("\n]\n")
                spill.seek(0)
                shutil.copyfileobj(spill, sys.stdout, _PIECE)
        elif not single:
            status = "all match" if all_ok else "MISMATCH"
            print(f"{len(specs)} specs verified: {status}")
    return 0 if all_ok else 1


def cmd_tables(args) -> int:
    base = args.which.rstrip("p")
    punctured = args.which.endswith("p")
    budget = resolve_budget(args)
    specs = [CodeSpec(3, m1, m2, u, lam, punctured) for lam, m1, m2, u in _TABLE_ROWS[base]]
    rows = [run_report(spec, budget) for spec in specs]
    if args.format == "json":
        _emit(json_text(
            [
                {
                    "spec": report["spec"],
                    "parameters": _parameters(report),
                    "we": report["we"],
                    "theorem": report["predicted"]["theorem"],
                    "match": ok,
                }
                for report, ok in rows
            ],
        ))
    else:
        print(f"Table {base}{'°' if punctured else ''} (recomputed)")
        print(f"{'λ':>2} {'m1':>3} {'m2':>3} {'u':>2} {'m2/v':>4} {'K':>2}  parameters      weight enumerator")
        for spec, (report, ok) in zip(specs, rows):
            n, k, d = _parameters(report)
            params = f"[{n},{k},{d}]"
            print(
                f"{spec.lam:>2} {spec.m1:>3} {spec.m2:>3} {spec.u:>2} "
                f"{spec.m2 // spec.v:>4} {spec.K:>2}  {params:<15} {fmt_we(dict(report['we']))}"
                + ("" if ok else "   [MISMATCH]")
            )
    return 0 if all(ok for _, ok in rows) else 1


def cmd_griesmer(args) -> int:
    with _user_input():
        rep = classify(args.p, args.n, args.k, args.d)
    if args.format == "json":
        _emit(json_text(vars(rep)))
    else:
        print(
            f"[{rep.n},{rep.k},{rep.d}] over F_{rep.p}: g({rep.k},{rep.d}) = {rep.g_of_d}, "
            f"largest Griesmer-feasible d = {rep.max_d_allowed}: {rep.classification}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the flags shared by several commands, each declared once on a parent parser
    spec = argparse.ArgumentParser(add_help=False)
    for name in ("p", "m1", "m2", "u"):
        spec.add_argument(f"--{name}", type=int)
    spec.add_argument("--lambda", dest="lam", type=int, help="level of the defining set; any integer, reduced mod p")
    spec.add_argument("--punctured", action="store_true")
    for name in ("modulus1", "modulus2"):
        spec.add_argument(f"--{name}", help="comma-separated coefficients, low degree first")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, help="operation budget; 0 = unlimited")
    budget.add_argument("--config", help="key=value config file (budget=...)")

    parser = argparse.ArgumentParser(
        prog="weilcodes",
        description="Construct trace-defined p-ary codes, enumerate and predict their "
        "(complete) weight enumerators, and verify the two against each other.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", parents=[spec, output, budget], help="build the defining set")
    sub.add_argument("--dump", action="store_true", help="emit one line per codeword")
    sub.set_defaults(func=cmd_construct)
    sub = subs.add_parser("enumerate", parents=[spec, output, budget], help="brute-force weight enumerators")
    sub.set_defaults(func=cmd_enumerate)
    sub = subs.add_parser("predict", parents=[spec, output], help="closed-form weight enumerators")
    sub.set_defaults(func=cmd_predict)
    sub = subs.add_parser("verify", parents=[spec, output, budget], help="measured vs predicted comparison")
    sub.add_argument("--sweep", help="range spec, e.g. 'p=3;m1=1-2;m2=1-3;u=1-2;lambda=all'")
    sub.set_defaults(func=cmd_verify)
    sub = subs.add_parser("tables", parents=[output, budget], help="recompute the example tables")
    sub.add_argument("--which", choices=("12", "12p", "13", "13p"), required=True)
    sub.set_defaults(func=cmd_tables)
    sub = subs.add_parser("griesmer", parents=[output], help="Griesmer bound classification")
    for name in ("p", "n", "k", "d"):
        sub.add_argument(f"--{name}", type=int, required=True)
    sub.set_defaults(func=cmd_griesmer)

    return parser


# the parser of every `main` call in the process, built on the first: argparse makes a fresh
# Namespace per parse and writes usage and errors to the sys.stdout/sys.stderr of that moment
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the interpreter's last flush
        return code
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout was closed (`| head`): what is still buffered goes to os.devnull, and the exit
        # code is the shell's for a death by SIGPIPE, 128 + 13, not 1, which means a mismatch
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
