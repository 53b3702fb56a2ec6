"""Command line exit codes, report files, and byte determinism."""

import pytest

from ergocert.cli import main
from ergocert.scenario import dumps, loads


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


def test_verify_rejects_nonpositive_tolerance(tmp_path):
    sc = write_scenario(tmp_path)
    assert main(["verify", sc, "--tol", "-1"]) == 2


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
