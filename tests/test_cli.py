"""CLI behaviour: exit codes, JSON schema and round-trip, budget plumbing."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weilcodes import cli, codes, gf
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
    assert main(["verify", "--p", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--p", "4", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "0"],
        ["enumerate", "--p", "3", "--m1", "0", "--m2", "1", "--u", "1", "--lambda", "0"],
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0",
         "--modulus1", "1,0,2"],
        ["verify", "--sweep", "foo=1"],
        ["verify", "--sweep", "m1=3-1"],
        ["verify", "--sweep", "p=3;m1=2;m2=2;maxq=80"],
        ["griesmer", "--p", "3", "--n", "10", "--k", "0", "--d", "3"],
        ["griesmer", "--p", "0", "--n", "5", "--k", "2", "--d", "1"],
        ["griesmer", "--p", "1", "--n", "5", "--k", "2", "--d", "1"],
        ["griesmer", "--p", "3", "--n", "-5", "--k", "2", "--d", "1"],
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--modulus1", ""],
        ["enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--modulus2", ""],
        ["verify", "--sweep", "p=3;m1=1;m2=1;u=1", "--p", "5"],
        ["verify", "--sweep", "p=3;m1=1;m2=1;u=1", "--modulus1", "1,0,2"],
        ["predict", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--modulus2", "2,0,1"],
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0", "--modulus1", "a,b,c"],
        ["construct", "--p", "3"],
        ["enumerate", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1"],
        ["predict", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0"],
        ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--lambda", "0", "--punctured"],
    ],
    ids=["p-composite", "m1-zero", "modulus-not-monic", "sweep-unknown-key", "sweep-empty",
         "sweep-selects-none", "griesmer-k-zero", "griesmer-p-zero", "griesmer-p-one", "griesmer-n-negative",
         "modulus1-empty", "modulus2-empty", "sweep-with-p", "sweep-with-modulus1", "predict-reducible-modulus2",
         "modulus1-not-integers", "construct-missing-flags", "enumerate-missing-lambda", "predict-missing-p",
         "verify-missing-u"],
)
def test_bad_values_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if "a,b,c" in argv:  # a modulus that is not integers names its flag and its value
        assert "--modulus1" in err and "'a,b,c'" in err


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
    # the scan of q1 + q2 = 3^7 + 3^6 level values exceeds the budget on its
    # own: refused before the 530 k-point defining set is built
    def no_scan(spec):
        raise AssertionError("defining set built before the budget check")

    monkeypatch.setattr(cli, "build_defining_set", no_scan)
    code, out, err = run(
        capsys, command, "--p", "3", "--m1", "7", "--m2", "6", "--u", "1", "--lambda", "0",
        "--budget", "5",
    )
    assert code == 3
    assert out == ""
    assert err == "error: enumeration needs at least 2916 operations, budget is 5\n"


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


def test_verify_punctured_json_never_builds_the_cwe_dict(capsys, monkeypatch):
    def no_dict(res):
        raise AssertionError("measured CWE dict built")

    monkeypatch.setattr(codes.EnumerationResult, "cwe", property(no_dict))
    argv = ["verify", "--p", "5", "--m1", "3", "--m2", "3", "--u", "1", "--lambda", "1", "--punctured"]
    code, out, _ = run(capsys, *argv, "--format", "json", "--budget", "0")
    assert code == 0
    report = json.loads(out)
    assert len(report["cwe"]) > 1000
    assert out == json.dumps(report, indent=2) + "\n"


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


@pytest.mark.parametrize("where", ["missing", "directory", "not-text"])
def test_unreadable_config_file_exits_2(capsys, tmp_path, monkeypatch, where):
    argv = ["enumerate", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "0"]
    if where == "missing":
        argv += ["--config", str(tmp_path / "missing.cfg")]
    elif where == "directory":  # the default config file is a directory
        (tmp_path / "weilcodes.cfg").mkdir()
        monkeypatch.chdir(tmp_path)
    else:
        cfg = tmp_path / "weilcodes.cfg"
        cfg.write_bytes(b"budget = 5\n\xff\xfe\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file ") and err.count("\n") == 1


def test_predict_takes_no_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "0",
              "--budget", "0"])
    assert exc.value.code == 2


def test_predict_is_charged_to_the_budget(capsys, monkeypatch):
    # (p + 2) * p compositions' entries: 3165 * 3163 is over the default 10^7, refused before any is built
    monkeypatch.delenv("WEILCODES_BUDGET", raising=False)
    code, out, err = run(capsys, "predict", "--p", "3163", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "1")
    assert code == 3
    assert out == ""
    assert err == f"error: prediction needs 10010895 operations, budget is {codes.DEFAULT_BUDGET}\n"
    # the budget comes from the environment, as predict takes no --budget: 5 * 3 = 15 entries at p = 3
    argv = ["predict", "--p", "3", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "1"]
    monkeypatch.setenv("WEILCODES_BUDGET", "14")
    assert run(capsys, *argv)[0] == 3
    monkeypatch.setenv("WEILCODES_BUDGET", "15")
    assert run(capsys, *argv)[0] == 0


def test_tables_catch_a_wrong_predicted_cwe(capsys, monkeypatch):
    # one predicted codeword moves from (c0, c1, c2) to (c0, c1 - 1, c2 + 1):
    # the length, the dimension and the WE stay right, only the CWE is wrong
    predict = cli.predict_cwe

    def planted(spec):
        pred = predict(spec)
        cwe = dict(pred.cwe)
        c0, c1, c2 = comp = next(c for c in cwe if c[1] > 0)
        moved = (c0, c1 - 1, c2 + 1)
        cwe[comp] -= 1
        cwe[moved] = cwe.get(moved, 0) + 1
        return dataclasses.replace(pred, cwe={c: k for c, k in cwe.items() if k})

    monkeypatch.setattr(cli, "predict_cwe", planted)
    code, out, _ = run(capsys, "tables", "--which", "13")
    assert code == 1
    assert out.count("   [MISMATCH]") == 6
    code, out, _ = run(capsys, "tables", "--which", "13", "--format", "json")
    assert code == 1
    assert [row["match"] for row in json.loads(out)] == [False] * 6


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


def test_text_sweep_prints_we_lines_only_for_a_single_spec(capsys, monkeypatch):
    # an empty --sweep is still a sweep; it stands in for the default sweep
    # here, cut to a few specs to keep the run short
    small = parse_sweep("p=3;m1=1;m2=1-2;u=1;lambda=0")
    monkeypatch.setattr(cli, "parse_sweep", lambda text: small if text == "" else parse_sweep(text))
    code, out, _ = run(capsys, "verify", "--sweep", "", "--budget", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(small) + 1 and not any(line.startswith("WE:") for line in lines)
    assert lines[-1] == f"{len(small)} specs verified: all match"
    code, out, _ = run(capsys, "verify", "--p", "3", "--m1", "1", "--m2", "2", "--u", "1", "--lambda", "0")
    assert code == 0
    assert [line.startswith("WE:") for line in out.splitlines()] == [False, True]


def _zero_timing(text):
    """text with every report's `timing_ms`, the one value that changes from run to run, set to 0."""
    return re.sub(r'"timing_ms": [0-9]+', '"timing_ms": 0', text)


def test_default_sweep_is_the_acceptance_sweep_and_verifies(capsys):
    from conftest import sweep_specs

    assert len(sweep_specs()) == 546
    code, out, _ = run(capsys, "verify", "--sweep", "", "--budget", "0", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == len(sweep_specs())
    for rep in reports:
        assert all(v for v in rep["match"].values() if v is not None)
    assert out == json.dumps(reports, indent=2) + "\n"
    # the bytes of every report, measured and predicted, pinned as they were first verified
    digest = hashlib.sha256(_zero_timing(out).encode()).hexdigest()
    assert digest == "ce5582ee96d2786ca21fd14fd1c19a9eaa17b4f228a54111cd62e686f53748e6"


def _cli_process(*argv):
    """`python -m weilcodes.cli argv` in a new interpreter, importing this checkout's package."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-m", "weilcodes.cli", *argv]
    return subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_a_closed_stdout_exits_141_with_nothing_on_stderr():
    # the reader of the JSON sweep (several MB) takes one line and goes: the next write meets
    # EPIPE, which exits 128 + SIGPIPE as a shell reads it, not 1 (a mismatch), and no traceback
    proc = _cli_process("verify", "--sweep", "", "--format", "json", "--budget", "0")
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=300) == 141


_LAST = ["verify", "--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0"]


def _settled(text):
    """text with the timings that change from run to run, `timing_ms` and a text line's `(Nms)`, set to 0."""
    return re.sub(r"\([0-9]+ms\)", "(0ms)", _zero_timing(text))


@pytest.fixture(scope="module")
def fresh_last():
    """(exit code, stdout, stderr) of `_LAST` run alone in a new interpreter, timings set to 0."""
    proc = _cli_process(*_LAST)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, _settled(out.decode()), err.decode()


@pytest.mark.parametrize(
    "before,code",
    [
        ([*_LAST, "--punctured"], 0),
        (["verify", "--sweep", "p=3;m1=1;m2=1-2;u=1"], 0),
        (["verify", "--p", "x", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0"], 2),
        ([*_LAST, "--format", "xml"], 2),
        (["verify", "-h"], 0),
        (["-h"], 0),
        ([*_LAST, "--format", "json"], 0),
    ],
    ids=["punctured", "sweep", "bad-int", "bad-choice", "verify-help", "help", "json"],
)
def test_a_reused_parser_prints_what_a_fresh_process_prints(capsys, fresh_last, before, code):
    # main keeps the parser it built on its first call: a call before must leave nothing behind
    try:
        got = main(before)
    except SystemExit as exc:  # argparse's exit on a bad value or -h
        got = exc.code
    assert got == code
    capsys.readouterr()
    got = main(_LAST)
    out = capsys.readouterr()
    assert (got, _settled(out.out), out.err) == fresh_last


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (_LAST, [*_LAST, "--format", "json"], ["griesmer", "--p", "3", "--n", "20", "--k", "4", "--d", "12"]):
        assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--p", "x"])
    assert len(built) == 1


def test_json_is_written_in_bounded_pieces(monkeypatch):
    # CPython writes at most 0x7ffff000 bytes in one call and drops the rest with no error,
    # so the output goes out in pieces; here a stdout that refuses any write over 64 characters
    class Narrow(io.StringIO):
        def write(self, text):
            if len(text) > 64:
                raise AssertionError(f"a write of {len(text)} characters")
            return super().write(text)

    monkeypatch.setattr(cli, "_PIECE", 64)
    sweep = "p=3;m1=1;m2=1-2;u=1"
    specs = parse_sweep(sweep)
    for argv, want in ((["--sweep", sweep], [cli.run_report(s, None)[0] for s in specs]),
                       (["--p", "3", "--m1", "2", "--m2", "2", "--u", "1", "--lambda", "0"],
                        cli.run_report(codes.CodeSpec(3, 2, 2, 1, 0), None)[0])):
        monkeypatch.setattr(sys, "stdout", Narrow())
        assert main(["verify", *argv, "--budget", "0", "--format", "json"]) == 0
        assert _zero_timing(sys.stdout.getvalue()) == _zero_timing(json_text(want)) + "\n"
    # a sweep refused by the budget part way through prints nothing
    monkeypatch.setattr(sys, "stdout", Narrow())
    assert main(["verify", "--sweep", "p=3;m1=1-2;m2=1;u=1", "--budget", "300", "--format", "json"]) == 3
    assert sys.stdout.getvalue() == ""


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
        [[[2, 1, 0], 3], [[4, 0], 1], [[0, 0, 5], 2]],
        [[[2, 1, 0], 3], [[0, 3, 0], 1], [0, 1], [[1, 1, 1], 4]],
        [[[2, -1, 0], 3], [[0, 3, 0], -7]],
        [[[2**64 + 1, 0], 2**63], [[0, 2**70], 1]],
        {"runs": [[[[[1, 2], 3], [[3, 0], 9]], [[[0, 0, 1], 1]]]]},
    ],
    ids=["empty-list", "empty-dict", "none", "bools-in-ints", "bool-frequency",
         "bool-in-composition", "empty-composition", "strings", "nested-points", "mixed",
         "unequal-compositions", "non-pair-after-pairs", "negative", "beyond-int64",
         "nested-pair-runs"],
)
def test_json_text_equals_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "p, rows, freq_lo",
    [(3, 20, 1), (5, 300, 1), (7, 50, 1), (13, 40, 1), (5, 1, 1), (13, 1, 2**62), (7, 30, 2**62 - 2**20)],
    ids=["p3", "p5", "p7", "p13", "one-row", "one-row-near-2^62", "near-2^62"],
)
def test_json_text_writes_a_cwe_array_as_json_dumps_writes_its_pairs(p, rows, freq_lo):
    rng = np.random.default_rng(p * rows)
    comps = rng.integers(0, 5000, size=(rows, p))
    freq = rng.integers(freq_lo, freq_lo + 2**21, size=rows)
    array = np.column_stack((comps, freq))
    pairs = [[c, k] for c, k in zip(comps.tolist(), freq.tolist())]
    obj = {"cwe": array, "nested": [array, {"cwe": array}], "after": [[[1, 2], 3]]}
    want = {"cwe": pairs, "nested": [pairs, {"cwe": pairs}], "after": [[[1, 2], 3]]}
    assert json_text(obj) == json.dumps(want, indent=2)


@pytest.mark.parametrize("spec", [codes.CodeSpec(7, 2, 2, 1, 3, True), codes.CodeSpec(13, 1, 1, 1, 0),
                                  codes.CodeSpec(13, 1, 2, 1, 5, True)],
                         ids=["p7-punctured", "p13-full", "p13-punctured"])
def test_report_with_cwe_array_is_json_dumps_of_its_pairs(spec):
    report, ok = cli.run_report(spec, None)
    assert ok
    pairs = [[row[:-1], row[-1]] for row in report["cwe"].tolist()]
    assert json_text(report) == json.dumps(dict(report, cwe=pairs), indent=2)


def test_reversed_sweep_range_exits_2(capsys):
    # a reversed range used to drop out silently, leaving the other values of the list
    code, out, err = run(capsys, "verify", "--sweep", "p=3;m1=1,3-2;m2=1;u=1")
    assert (code, out) == (2, "")
    assert err == "error: range '3-2' is reversed\n"
    with pytest.raises(ValueError, match="reversed"):
        parse_sweep("p=3;m1=1;m2=1;u=2-1")


@pytest.mark.parametrize(
    "sweep, piece",
    [("p=3;lambda=1-2-3", "'1-2-3'"), ("p=", "''"), ("p=3;m1=1,x;m2=1;u=1", "'x'"), ("maxq=9e3", "'9e3'")],
)
def test_bad_sweep_value_is_quoted(capsys, sweep, piece):
    code, out, err = run(capsys, "verify", "--sweep", sweep)
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep ") and err.count("\n") == 1
    assert piece in err


def test_predict_without_a_modulus_builds_no_field(capsys, monkeypatch):
    # predict reads no field; the default modulus search alone took 1.6 s at m1 = 80

    def no_field(self, *args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(gf.FiniteField, "__init__", no_field)
    spec = ["--p", "3", "--m1", "80", "--m2", "2", "--u", "1", "--lambda", "1"]
    code, out, _ = run(capsys, "predict", *spec)
    assert code == 0
    assert out.startswith("p=3 m1=80 m2=2 u=1 lambda=1 full\ntheorem 9: [")
    # the budget refuses the scan of 3^80 + 3^2 level values before any field is built
    for command in ("enumerate", "construct", "verify"):
        code, out, err = run(capsys, command, *spec)
        assert (code, out) == (3, ""), command
        assert err == f"error: enumeration needs at least {3**80 + 3**2} operations, budget is {codes.DEFAULT_BUDGET}\n"


def test_sweep_verifies_a_repeated_spec_once(capsys):
    # lambda=1,4 at p = 3 names lambda = 1 twice, p=3,3 the prime twice
    assert parse_sweep("p=3;m1=1;m2=1;u=1;lambda=1,4") == parse_sweep("p=3;m1=1;m2=1;u=1;lambda=1")
    specs = parse_sweep("p=3,5,3;m1=1;m2=1;u=1,1;lambda=2,0,5;punctured=full")
    assert [(s.p, s.lam) for s in specs] == [(3, 2), (3, 0), (5, 2), (5, 0)]
    code, out, _ = run(capsys, "verify", "--sweep", "p=3;m1=1;m2=1;u=1;lambda=1,4", "--format", "json")
    assert code == 0
    assert [r["spec"]["punctured"] for r in json.loads(out)] == [False, True]


def test_p131_verifies_within_the_default_budget(capsys):
    # the pair stage pairs one A row per scaling orbit, over the nonempty bins of classes of
    # at most 2 members: ~2.3e6 operations, where every row pair over all bins charged 2.5e9
    code, out, _ = run(capsys, "verify", "--p", "131", "--m1", "1", "--m2", "1", "--u", "1", "--lambda", "1")
    assert code == 0
    assert out.startswith("p=131 m1=1 m2=1 u=1 lambda=1 full: [132,2,130] ") and "match=yes" in out


@pytest.mark.parametrize("m1,m2,u", [(2, 2, 1), (2, 2, 2), (1, 3, 2), (2, 1, 1)])
def test_verify_takes_u_mod_m2(capsys, m1, m2, u):
    # x^{p^m2} = x: u + k m2 verifies as u does, and the report keeps the u given
    reports = []
    for given in (u, u + 10**10 * m2):
        code, out, _ = run(capsys, "verify", "--p", "3", "--m1", str(m1), "--m2", str(m2), "--u", str(given),
                           "--lambda", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["spec"].pop("u") == given and report["match"]["we"] is True
        del report["timing_ms"]
        reports.append(report)
    assert reports[0] == reports[1]


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
