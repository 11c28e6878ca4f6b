"""Shared fixtures: acceptance-criterion reporting and cached sweep enumerations."""

from functools import lru_cache

from weilcodes.cli import parse_sweep
from weilcodes.codes import CodeSpec, build_defining_set, complete_weight_enumerator

_ACCEPTANCE = {}


def acceptance(num, desc):
    """Mark a test as one acceptance criterion; a summary line is printed per run."""

    def wrap(fn):
        fn._acceptance = (num, desc)
        return fn

    return wrap


def pytest_collection_modifyitems(items):
    for item in items:
        fn = getattr(item, "function", None)
        if fn is not None and hasattr(fn, "_acceptance"):
            _ACCEPTANCE[item.nodeid] = fn._acceptance


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    lines = []
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            info = _ACCEPTANCE.get(rep.nodeid)
            if info:
                lines.append((info[0], f"acceptance {info[0]}: {verdict} - {info[1]}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# the verification sweep, `verify --sweep ""`: p in {3,5}, m1 <= 3, m2 <= 4,
# u <= 3, all lambda, capped at p^K <= 5^6 message pairs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sweep_specs() -> tuple[CodeSpec, ...]:
    return tuple(parse_sweep(""))


@lru_cache(maxsize=None)
def defining_set_of(spec: CodeSpec):
    return build_defining_set(spec)


@lru_cache(maxsize=None)
def enumeration_of(spec: CodeSpec):
    return complete_weight_enumerator(defining_set_of(spec), budget=None)
