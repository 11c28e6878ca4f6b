"""The benchmark's output checks pass on real output and fail on planted errors.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from weilcodes import charsum, codes  # noqa: E402
from workloads import check_oracle, check_report, run_cli, run_oracle, verify_argv  # noqa: E402


def report_of(spec):
    rc, text = run_cli(verify_argv(spec))
    return rc, json.loads(text)


def plant_composition(rep):
    """Move one coordinate of one nonzero codeword class from symbol 0 to symbol 1."""
    for comp, _ in rep["cwe"]:
        if comp[0] > 0 and comp[0] != rep["length"]:
            comp[0] -= 1
            comp[1] += 1
            return rep
    raise AssertionError("no class to plant into")


@pytest.mark.parametrize("punctured", [False, True])
def test_report_check_passes_then_catches_wrong_composition(punctured):
    spec = codes.CodeSpec(3, 2, 2, 1, 0, punctured, mod1=(2, 2, 1))
    rc, rep = report_of(spec)
    assert check_report(spec, rc, json.dumps(rep)) == []
    problems = check_report(spec, rc, json.dumps(plant_composition(rep)))
    assert "WE is not the weight projection of the CWE" in problems
    if not punctured:
        assert "measured CWE differs from the prediction" in problems


def test_report_check_catches_false_flag_and_exit_code():
    spec = codes.CodeSpec(5, 1, 2, 1, 3)
    rc, rep = report_of(spec)
    rep["match"]["we"] = False
    assert check_report(spec, 1, json.dumps(rep)) == ["exit code 1", "match flag we is false"]


@pytest.fixture(scope="module")
def oracle_result():
    # 5^4 with u0 = 1 has m/v = 4, so some b have no gamma_b
    p, m, modulus = 5, 4, (1, 0, 2, 3, 1)
    spec = codes.CodeSpec(p, 1, m, 1, 2, mod2=modulus)
    pairs = [(0, 0), (1, 7), (3, 600), (4, 1)]
    res = run_oracle(p, m, modulus, [(5, 9, 1), (17, 0, 2), (300, 44, 3)], 1, spec)
    return res, spec, pairs


def test_oracle_check_passes(oracle_result):
    res, spec, pairs = oracle_result
    assert None in res["gamma"]
    assert check_oracle(res, spec, pairs) == []


def test_oracle_check_catches_wrong_sum(oracle_result):
    res, spec, pairs = oracle_result
    kind, a, b, u, brute, closed = res["sums"][1]
    one = charsum.CycInt.integer(brute.p, 1)
    sums = list(res["sums"])
    sums[1] = (kind, a, b, u, brute + one, closed)
    assert check_oracle(dict(res, sums=sums), spec, pairs) == [
        f"weil sum at a={a.index} b={b.index} u={u}: brute != closed"
    ]
    planted = dict(res, gauss=(res["gauss"][0], res["gauss"][1] + one))
    assert check_oracle(planted, spec, pairs) == ["Gauss sum: brute != closed"]


def test_oracle_check_catches_wrong_gamma_and_row(oracle_result):
    res, spec, pairs = oracle_result
    gammas = list(res["gamma"])
    bi = next(i for i, g in enumerate(gammas) if g is not None)
    gammas[bi] = gammas[bi] + res["field"].one()
    assert check_oracle(dict(res, gamma=gammas), spec, pairs) == [
        f"gamma_b for b={bi} does not solve the shift equation (1 such b)"
    ]
    table = res["table"].copy()
    table[1, 7, 0] += 1
    table[1, 7, 1] -= 1
    assert check_oracle(dict(res, table=table), spec, pairs) == [
        "predicted row (1, 7) differs from the encoded codeword"
    ]
