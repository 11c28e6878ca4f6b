"""CLI behaviour: exit codes, JSON schema and round-trip, budget plumbing."""

import json

import pytest

from weilcodes import cli, codes
from weilcodes.cli import fmt_we, json_text, main, parse_sweep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_spec_text(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0")
    assert code == 0
    assert "[20,4,12]" in out
    assert "theorem 3" in out
    assert "1 + 60z^12 + 20z^18" in out


def test_verify_json_schema_and_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "spec", "length", "dimension", "we", "cwe", "predicted", "match", "griesmer", "timing_ms",
    ]
    assert report["length"] == 20
    assert report["we"] == [[0, 1], [12, 60], [18, 20]]
    assert report["match"] == {"length": True, "dimension": True, "we": True, "cwe": True}
    assert report["griesmer"]["classification"] == "optimal"
    # byte-identical round trip
    assert json.dumps(report, indent=2) == out.strip()


def test_verify_punctured_cwe_match_is_null(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--punctured", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["match"]["cwe"] is None
    assert report["predicted"]["cwe"] is None
    assert report["length"] == 10


def test_lambda_accepts_negative(capsys):
    code1, out1, _ = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda=-1", "--format", "json",
    )
    code2, out2, _ = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "2", "--format", "json",
    )
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["we"] == b["we"] == [[0, 1], [18, 50], [24, 30]]


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "14"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--p", "4", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "0"],
        ["enumerate", "--p", "3", "--m1", "0", "--m2", "1", "--u", "1", "--lambda", "0"],
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0",
         "--modulus1", "1,0,2"],
        ["verify", "--sweep", "foo=1"],
        ["verify", "--sweep", "m1=3-1"],
        ["griesmer", "--p", "3", "--n", "10", "--k", "0", "--d", "3"],
    ],
    ids=["p-composite", "m1-zero", "modulus-not-monic", "sweep-unknown-key", "sweep-empty",
         "griesmer-k-zero"],
)
def test_bad_values_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_above_former_table_limit(capsys):
    # q1 = 3^7 = 2187 lies above the 2048-element limit the field tables once had
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--m1", "7", "--m2", "1", "--u", "1", "--lambda", "0",
        "--budget", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["match"] == {"length": True, "dimension": True, "we": True, "cwe": True}


def test_budget_exceeded_exit_3(capsys):
    code, _, err = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--budget", "5",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["verify", "enumerate", "construct"])
def test_budget_refuses_before_the_scan(capsys, monkeypatch, command):
    # q1 q2 = 3^13 messages exceed the budget on their own: refused before
    # the 530 k-point defining set is built
    def no_scan(spec):
        raise AssertionError("defining set built before the budget check")

    monkeypatch.setattr(cli, "build_defining_set", no_scan)
    code, out, err = run(
        capsys, command, "--p", "3", "--m1", "7", "--m2", "6", "--u", "1", "--lambda", "0",
        "--budget", "5",
    )
    assert code == 3
    assert out == ""
    assert err == "error: enumeration needs at least 1594323 symbol evaluations, budget is 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--punctured"],
        ["enumerate", "--p", "5", "--m1", "1", "--m2", "2", "--u", "1", "--lambda", "2"],
        ["tables", "--which", "13p"],
    ],
    ids=["verify", "enumerate", "tables"],
)
def test_measurement_never_materializes_points(capsys, monkeypatch, argv):
    def no_points(ds):
        raise AssertionError("points materialized")

    monkeypatch.setattr(codes.DefiningSet, "_lex", property(no_points))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out


def test_construct_dump_checks_the_full_budget(capsys):
    # the dump encodes all 81 codewords of length 20: 1620 symbol evaluations
    base = ["construct", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--dump"]
    code, out, err = run(capsys, *base, "--budget", "1619")
    assert code == 3
    assert out == ""
    assert "1620" in err
    code, out, _ = run(capsys, *base, "--budget", "1620")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("a=")]) == 81


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("WEILCODES_BUDGET", "5")
    code, _, err = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0",
    )
    assert code == 3
    # explicit flag overrides the environment
    code, _, _ = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--budget", "0",
    )
    assert code == 0


def test_budget_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "weilcodes.cfg"
    cfg.write_text("# defaults\nbudget = 5\n")
    code, _, err = run(
        capsys, "enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--config", str(cfg),
    )
    assert code == 3


def test_budget_env_var_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("WEILCODES_BUDGET", "abc")
    code, out, err = run(
        capsys, "enumerate", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "WEILCODES_BUDGET" in err


def test_budget_config_file_not_an_integer_exits_2(capsys, tmp_path):
    cfg = tmp_path / "weilcodes.cfg"
    cfg.write_text("budget = abc\n")
    code, out, err = run(
        capsys, "enumerate", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1",
        "--lambda", "0", "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tables_12_and_13_text(capsys):
    code, out, _ = run(capsys, "tables", "--which", "12")
    assert code == 0
    for token in (
        "[80,5,48]", "1 + 90z^48 + 80z^54 + 72z^60",
        "[20,4,12]", "[224,6,144]", "[188,6,108]",
        "[728,7,432]", "1 + 90z^432 + 2024z^486 + 72z^540",
    ):
        assert token in out
    code, out, _ = run(capsys, "tables", "--which", "13p")
    assert code == 0
    for token in ("[45,5,27]", "[12,4,6]", "[15,4,9]", "[126,6,81]", "1 + 476z^81 + 252z^90"):
        assert token in out


def test_construct_dump(capsys):
    code, out, _ = run(
        capsys, "construct", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1",
        "--lambda", "1", "--dump",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("a=")]
    assert len(lines) == 9
    assert all(" b=" in l and " c=" in l for l in lines)


def test_construct_with_custom_modulus_same_enumerator(capsys):
    base = ["--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--format", "json"]
    code, out1, _ = run(capsys, "enumerate", *base)
    code2, out2, _ = run(capsys, "enumerate", *base, "--modulus1", "2,2,1", "--modulus2", "2,1,1")
    assert code == code2 == 0
    assert json.loads(out1)["we"] == json.loads(out2)["we"]
    assert json.loads(out1)["cwe"] == json.loads(out2)["cwe"]


def test_predict_punctured_text_notes_unpredictable_cwe(capsys):
    code, out, _ = run(
        capsys, "predict", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1",
        "--lambda", "0", "--punctured",
    )
    assert code == 0
    assert "not predictable" in out


def test_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--sweep", "p=3;m1=1-2;m2=1-2;u=1;lambda=all", "--budget", "0")
    assert code == 0
    assert "all match" in out


def test_sweep_p7_verifies(capsys):
    # beyond the default sweep's p in {3, 5}: 168 specs at p = 7
    code, out, _ = run(capsys, "verify", "--sweep", "p=7;m1=1-2;m2=1-2;u=1-3", "--budget", "0")
    assert code == 0
    assert out.splitlines()[-1] == "168 specs verified: all match"


def test_default_sweep_is_the_acceptance_sweep_and_verifies(capsys):
    from conftest import sweep_specs

    assert tuple(parse_sweep("")) == sweep_specs()
    code, out, _ = run(capsys, "verify", "--sweep", "", "--budget", "0", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == len(sweep_specs())
    for rep in reports:
        assert all(v for v in rep["match"].values() if v is not None)
    assert out == json.dumps(reports, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        None,
        [1, True, 0, False],
        [[[2, 1, 0], True], [[0, 3, 0], 1]],
        [[[True, 0], 1]],
        [[[], 1]],
        {"say \"hi\"": "back\\slash \"quoted\"", "n": "déjà vu ζ_p ✓"},
        {"points": [[[0, 1], [2, 0]], [[1, 1], [0, 2]]], "empty": {}, "none": [None]},
        [[1, 2], 3, [[4], 5], (6, 7)],
    ],
    ids=["empty-list", "empty-dict", "none", "bools-in-ints", "bool-frequency",
         "bool-in-composition", "empty-composition", "strings", "nested-points", "mixed"],
)
def test_json_text_equals_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_parse_sweep_defaults_cap():
    specs = parse_sweep("")
    assert all(s.p ** s.K <= 5**6 for s in specs)
    assert any(s.p == 5 for s in specs)
    assert any(s.punctured for s in specs) and any(not s.punctured for s in specs)
    only_full = parse_sweep("punctured=full")
    assert not any(s.punctured for s in only_full)


def test_fmt_we():
    assert fmt_we({0: 1, 12: 60, 18: 20}) == "1 + 60z^12 + 20z^18"
    assert fmt_we({0: 9}) == "9"
