"""Command line exit codes, report files, and byte determinism."""

import numpy as np
import pytest

from ergocert import cli, linalg, maximal
from ergocert.cli import main
from ergocert.errors import NonConvergence
from ergocert.scenario import dumps, loads
from ergocert.suite import run_suite


def write_scenario(tmp_path, name="sc.json", **over):
    doc = {
        "schema_version": 1,
        "mode": "state",
        "algebra": [2],
        "state": [[[0.5, 0.0], [0.0, 0.5]]],
        "map": {"kind": "kraus", "ops": [[[1.0, 0.0], [0.0, 1.0]]]},
        "input": {"kind": "embed", "element": [[[1.0, 0.0], [0.0, 1.0]]]},
        "lambda": 2.0,
        "n_max": 2,
        "horizon": 6,
        "seed": 1,
    }
    doc.update(over)
    path = tmp_path / name
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def test_verify_trivial_exits_zero(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", sc, "--out", str(out)]) == 0
    report = loads(out.read_text(encoding="utf-8"))
    assert report["overall_pass"] is True
    assert all(r["projection_trace"] == 2.0 for r in report["pointwise"])


def test_verify_reports_are_byte_identical(tmp_path):
    sc = write_scenario(tmp_path)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", sc, "--out", str(o1)]) == 0
    assert main(["verify", sc, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_verify_defaults_to_stdout(tmp_path, capsys):
    sc = write_scenario(tmp_path)
    assert main(["verify", sc]) == 0
    out = capsys.readouterr().out
    assert loads(out)["overall_pass"] is True


def test_verify_unfaithful_state_exits_two(tmp_path, capsys):
    sc = write_scenario(tmp_path, state=[[[1.0, 0.0], [0.0, 0.0]]])
    assert main(["verify", sc]) == 2
    assert "NotFaithful" in capsys.readouterr().err


def test_verify_missing_file_exits_two(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    assert "ScenarioError" in capsys.readouterr().err


def test_verify_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2


def test_verify_malformed_partition_exits_two(tmp_path, capsys):
    sc = write_scenario(
        tmp_path, map={"kind": "cond_exp", "partition": [[["a"], [1]]]}
    )
    assert main(["verify", sc]) == 2
    assert "NotSubalgebra" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [{}, {"mode": "tracial_weight", "state": None}])
def test_verify_overflowing_lambda_exits_two(tmp_path, capsys, recwarn, mode):
    sc = write_scenario(tmp_path, **mode, **{"lambda": 1e308})
    assert main(["verify", sc]) == 2
    err = capsys.readouterr().err
    assert "InputError" in err and "lambda" in err and "overflow" in err
    assert not recwarn.list


def test_verify_huge_lambda_exits_zero(tmp_path, recwarn):
    # payoffs near -1e200 on a non-commuting instance: every eigenvalue
    # reconstruction check runs at that scale
    sc = write_scenario(
        tmp_path,
        state=[[[0.6, 0.0], [0.0, 0.4]]],
        map={"kind": "kraus", "ops": [[[0.0, 1.0], [1.0, 0.0]]], "weights": [0.5]},
        input={"kind": "embed", "element": [[[1.0, 0.3], [0.3, 1.0]]]},
        **{"lambda": 1e200},
    )
    assert main(["verify", sc, "--out", str(tmp_path / "r.json")]) == 0
    assert not recwarn.list


def test_verify_strict_unstable_limit_exits_three(tmp_path, capsys):
    sc = write_scenario(tmp_path, horizon=3)
    assert main(["verify", sc, "--strict", "--out", str(tmp_path / "r.json")]) == 3
    assert "NoStableLimit" in capsys.readouterr().err
    assert main(["verify", sc, "--out", str(tmp_path / "r2.json")]) == 0


def test_verify_strict_passes_on_roundoff_zeros_of_z(tmp_path):
    # a = diag(0.9, 0.1) against lambda rho = 1/2: every order's projection has
    # trace 1, and z's roundoff zeros sit in its kernel, not in the strict band
    sc = write_scenario(
        tmp_path,
        input={"kind": "blocks", "blocks": [[[0.9, 0.0], [0.0, 0.1]]]},
        **{"lambda": 1.0},
    )
    loose, strict = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", sc, "--out", str(loose)]) == 0
    assert main(["verify", sc, "--strict", "--out", str(strict)]) == 0
    report = loads(loose.read_text(encoding="utf-8"))
    assert all(r["projection_trace"] == 1.0 for r in report["pointwise"])
    assert report["strict"] is False
    report["strict"] = True
    assert dumps(report).encode("utf-8") == strict.read_bytes()


def test_verify_tracial_unstable_limit_exits_three_without_a_report(tmp_path, capsys):
    # unlike state mode, tracial mode records no unstable limit: without
    # --strict too, the limit's NoStableLimit ends the run as a breakdown
    sc = write_scenario(tmp_path, mode="tracial_weight", state=None, horizon=3)
    out = tmp_path / "r.json"
    assert main(["verify", sc, "--out", str(out)]) == 3
    assert "NoStableLimit" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", sc, "--strict", "--out", str(out)]) == 3
    assert not out.exists()


def test_verify_tiny_tolerance_exits_one(tmp_path):
    # roundoff-size residuals sit below an absurd tolerance, so the
    # gating path itself is what this exercises
    sc = write_scenario(
        tmp_path,
        state=[[[0.7, 0.0], [0.0, 0.3]]],
        map={
            "kind": "kraus",
            "ops": [[[0.6, 0.0], [0.3, 0.2]], [[0.1, 0.0], [0.2, 0.5]]],
        },
        input={"kind": "random", "seed": 5, "trace": 3.0},
        n_max=4,
        **{"lambda": 1.0},
    )
    assert main(["verify", sc, "--out", str(tmp_path / "ok.json")]) == 0
    assert main(["verify", sc, "--tol", "1e-30", "--out", str(tmp_path / "no.json")]) == 1


def _ascending_scenario(tmp_path, name="sc.json"):
    # a Kraus scenario whose solves reach the ascent and its swap screen
    return write_scenario(
        tmp_path,
        name,
        state=[[[0.7, 0.0], [0.0, 0.3]]],
        map={
            "kind": "kraus",
            "ops": [[[0.6, 0.0], [0.3, 0.2]], [[0.1, 0.0], [0.2, 0.5]]],
        },
        input={"kind": "random", "seed": 5, "trace": 3.0},
        n_max=4,
        **{"lambda": 1.0},
    )


@pytest.mark.parametrize(
    "gufunc, caller", [("_EIGH_LO", "_ascend_block"), ("_EIGVALSH_LO", "_grow_screen")]
)
def test_an_eigensolver_failure_in_the_solver_exits_three(
    tmp_path, capsys, recwarn, monkeypatch, gufunc, caller
):
    # once the ascent (or the swap screen's growth) starts, the kernel's gufunc
    # returns NaN, as LAPACK does when it fails to converge: the run ends in a
    # typed breakdown raised there, not a traceback, and no NaN reaches
    # arithmetic that would warn
    sc = _ascending_scenario(tmp_path)
    real, real_caller = getattr(linalg, gufunc), getattr(maximal, caller)
    failing, raised = [], []

    def nan_gufunc(a, signature):
        out = real(a, signature=signature)
        if not failing:
            return out
        if isinstance(out, tuple):
            return tuple(np.full_like(x, np.nan) for x in out)
        return np.full_like(out, np.nan)

    def failing_caller(*args):
        failing.append(1)
        try:
            return real_caller(*args)
        except NonConvergence:
            raised.append(1)
            raise

    monkeypatch.setattr(linalg, gufunc, nan_gufunc)
    monkeypatch.setattr(maximal, caller, failing_caller)
    assert main(["verify", sc, "--out", str(tmp_path / "r.json")]) == 3
    assert raised
    assert capsys.readouterr().err.startswith("NonConvergence: eigensolver failed")
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_reports_need_no_numpy_eigensolver_but_the_kernel(tmp_path, monkeypatch):
    # every eigendecomposition goes through linalg's kernel: with numpy's
    # eigh and eigvalsh replaced by raisers, reports keep their bytes
    sc = _ascending_scenario(tmp_path)
    assert main(["verify", sc, "--out", str(tmp_path / "before.json")]) == 0
    suite = dumps(run_suite(0, 3))

    def raiser(*args, **kwargs):
        raise AssertionError("an eigensolver call outside linalg's kernel")

    calls = []
    real = linalg._EIGH_LO

    def counting(a, signature):
        calls.append(1)
        return real(a, signature=signature)

    monkeypatch.setattr(np.linalg, "eigh", raiser)
    monkeypatch.setattr(np.linalg, "eigvalsh", raiser)
    monkeypatch.setattr(linalg, "_EIGH_LO", counting)
    assert main(["verify", sc, "--out", str(tmp_path / "after.json")]) == 0
    assert dumps(run_suite(0, 3)) == suite
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert calls


def test_verify_rejects_nonpositive_tolerance(tmp_path, capsys, monkeypatch):
    # rejected before any solve, with a message naming the option
    def no_run(*args, **kwargs):
        raise AssertionError("a rejected tolerance must not reach a solve")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(cli, "run_suite", no_run)
    sc = write_scenario(tmp_path)
    for tol in ("-1", "0", "nan", "inf", "-inf"):
        for argv in (["verify", sc], ["suite", "--seed", "7", "--count", "1"]):
            assert main(argv + [f"--tol={tol}"]) == 2
            err = capsys.readouterr().err
            assert "InputError: --tol must be positive and finite" in err


def test_suite_deterministic_and_exits_zero(tmp_path):
    o1, o2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["suite", "--seed", "7", "--count", "4", "--dims", "2"]
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    report = loads(o1.read_text(encoding="utf-8"))
    assert report["aggregate"]["pass_rate"] == 1.0


def test_suite_empty_count_exits_two(capsys):
    assert main(["suite", "--seed", "7", "--count", "0"]) == 2
    assert "InputError" in capsys.readouterr().err


def test_suite_bad_dims_is_an_argument_error():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--seed", "7", "--count", "1", "--dims", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--seed", "7", "--count", "1", "--dims", "0"])
    assert exc.value.code == 2


def test_suite_bad_horizon_exits_two():
    assert main(["suite", "--seed", "7", "--count", "1", "--horizon", "0"]) == 2


def test_export_csv_from_suite_report(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["suite", "--seed", "7", "--count", "2", "--dims", "2", "--out", str(out)]) == 0
    assert main(["export-csv", str(out)]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0].startswith("instance,n,kind,passed")
    assert len(lines) >= 3


def test_export_csv_rejects_scenario_files(tmp_path, capsys):
    sc = write_scenario(tmp_path)
    assert main(["export-csv", sc]) == 2
    assert "ScenarioError" in capsys.readouterr().err


def test_export_csv_to_file_matches_stdout(tmp_path, capsys):
    rep = tmp_path / "r.json"
    sc = write_scenario(tmp_path)
    assert main(["verify", sc, "--out", str(rep)]) == 0
    out = tmp_path / "r.csv"
    assert main(["export-csv", str(rep), "--out", str(out)]) == 0
    assert main(["export-csv", str(rep)]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "scenario_report", "pointwise": [{"kind": "pointwise"}]},
        {"kind": "suite_report", "instances": [{"seed": 1}]},
        {"kind": "scenario_report", "pointwise": 5},
        {
            "kind": "suite_report",
            "instances": [
                {"seed": 1, "pointwise": {"kind": "pointwise", "order": 0, "passed": True, "info": 3}}
            ],
        },
        {
            "kind": "scenario_report",
            "pointwise": [{"kind": "pointwise", "order": 0, "passed": True, "residuals": [1.0]}],
        },
    ],
    ids=["no_order", "no_pointwise", "pointwise_not_list", "info_not_object", "residuals_not_object"],
)
def test_export_csv_rejects_malformed_reports(tmp_path, capsys, doc):
    path = tmp_path / "report.json"
    path.write_text(dumps(doc), encoding="utf-8")
    assert main(["export-csv", str(path)]) == 2
    assert "ScenarioError: report field" in capsys.readouterr().err


def test_an_unwritable_out_exits_two(tmp_path, capsys):
    # --out naming a directory, or a file in a missing directory, is an
    # input error for every command, not a traceback read as a failed certificate
    sc = write_scenario(tmp_path)
    rep = tmp_path / "r.json"
    assert main(["verify", sc, "--out", str(rep)]) == 0
    commands = (
        ["verify", sc],
        ["suite", "--seed", "0", "--count", "1"],
        ["export-csv", str(rep)],
    )
    for argv in commands:
        for out in (tmp_path, tmp_path / "missing" / "out.json"):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 2
            assert "ScenarioError: cannot write output file: " in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def _run(argv, capsys):
    # exit code, stdout and stderr of one in-process call
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    # the parser is built once per process; a bad argv first leaves it usable
    sc = write_scenario(tmp_path)
    rep = tmp_path / "r.json"
    assert main(["verify", sc, "--out", str(rep)]) == 0
    calls = (
        ["verify", sc, "--bogus"],
        ["verify", sc],
        ["suite", "--seed", "0", "--count", "2"],
        ["export-csv", str(rep)],
    )
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(_run(argv, capsys))
    cli._build_parser.cache_clear()
    in_sequence = [_run(argv, capsys) for argv in calls]
    assert in_sequence == alone
    assert [code for code, _, _ in in_sequence] == [2, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in in_sequence[0][2]
    assert cli._build_parser.cache_info().misses == 1
