"""Seeded suite generation, aggregation, and determinism."""

import numpy as np
import pytest

from ergocert import maximal
from ergocert.errors import InputError
from ergocert.maximal import SolveOptions, pointwise_certificate
from ergocert.scenario import certificate_record, dumps, export_csv, loads
from ergocert.suite import SUITE_LAMBDAS, dims_pool, run_suite, suite_instance

from helpers import always_polish, count_dual_calls, read_every_bound_at_once


def test_dims_pool_shapes():
    assert dims_pool([2]) == ((2,),)
    assert dims_pool([2, 3]) == ((2,), (3,), (2, 3))
    assert dims_pool([2, 2, 4]) == ((2,), (2,), (4,), (2, 2, 4))


def test_dims_pool_rejects_bad_input():
    with pytest.raises(InputError):
        dims_pool([])
    with pytest.raises(InputError):
        dims_pool([0])
    with pytest.raises(InputError):
        dims_pool([2, -1])


def test_suite_instance_cycles_signature_and_threshold():
    sigs = [suite_instance(k).algebra.signature for k in range(6)]
    assert sigs == [(2,), (3,), (2, 3), (2,), (3,), (2, 3)]
    lams = [suite_instance(k).lam for k in (0, 3, 6, 9)]
    assert lams == [SUITE_LAMBDAS[0], SUITE_LAMBDAS[1], SUITE_LAMBDAS[2], SUITE_LAMBDAS[0]]


def test_suite_instance_order_and_trace_ranges():
    for k in (0, 5, 12, 13, 25):
        inst = suite_instance(k)
        assert inst.order == k % 13
        assert 0.1 <= inst.a.integral() <= 10.0 + 1e-9


def test_suite_instance_deterministic():
    a = suite_instance(11)
    b = suite_instance(11)
    assert a.lam == b.lam and a.order == b.order
    assert all(np.array_equal(x, y) for x, y in zip(a.a.rep.blocks, b.a.rep.blocks))
    assert all(
        np.array_equal(x, y) for x, y in zip(a.model.kraus_ops, b.model.kraus_ops)
    )


def test_suite_instance_rejects_negative_seed():
    with pytest.raises(InputError):
        suite_instance(-1)


def test_run_suite_small_batch_passes():
    report = run_suite(7, 4, dims=[2])
    assert report["kind"] == "suite_report"
    assert report["count"] == 4 and report["seed"] == 7
    assert [r["seed"] for r in report["instances"]] == [7, 8, 9, 10]
    assert report["aggregate"]["pass_rate"] == 1.0
    assert report["aggregate"]["type_infinity_failures"] == 0
    assert report["overall_pass"] is True


def test_run_suite_deterministic_and_round_trips():
    r1 = run_suite(3, 3, dims=[2])
    r2 = run_suite(3, 3, dims=[2])
    assert dumps(r1) == dumps(r2)
    assert loads(dumps(r1)) == r1


def test_run_suite_rejects_empty_batch():
    with pytest.raises(InputError):
        run_suite(7, 0, dims=[2])


def test_run_suite_checks_count_and_horizon_before_any_solve(monkeypatch):
    solves = []
    real = maximal._solve_from_blocks

    def recording(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(maximal, "_solve_from_blocks", recording)
    for count, horizon in ((7, 0), (2, 2.5), (2.0, 8), (True, 8), (2, -1)):
        with pytest.raises(InputError, match="must be a whole number >= 1"):
            run_suite(7, count, horizon=horizon)
    assert solves == []


def test_run_suite_records_an_unstable_limit():
    # a horizon below the cluster window never finds a stable limit
    report = run_suite(0, 3, horizon=2)
    for inst in report["instances"]:
        urec = inst["uniform"]
        assert urec == {
            "no_stable_limit": True,
            "message": urec["message"],
            "cluster_size": 2,
            "stalled_solves": 0,
        }
        assert urec["message"].startswith("largest projection cluster has 2 members")
    aggregate = report["aggregate"]
    assert aggregate["no_stable_limit_count"] == 3
    assert aggregate["no_stable_limit_rate"] == 1.0
    assert aggregate["uniform_pass_rate"] == 1.0
    assert report["overall_pass"] is True


@pytest.mark.parametrize(
    "tol, pass_rate, pointwise, uniform",
    [(1e-16, 8 / 9, 1.0, 8 / 9), (1e-17, 7 / 9, 7 / 9, 7 / 9)],
)
def test_run_suite_aggregates_a_batch_where_some_certificates_fail(
    tol, pass_rate, pointwise, uniform
):
    # pinned from the suite that kept running tallies beside its records
    report = run_suite(0, 9, tol=tol)
    aggregate = report["aggregate"]
    assert aggregate["pass_rate"] == pass_rate
    assert aggregate["pointwise_pass_rate"] == pointwise
    assert aggregate["uniform_pass_rate"] == uniform
    assert aggregate["no_stable_limit_count"] == 0
    assert aggregate["worst_residual"] == -4.696267993228166e-16
    assert report["overall_pass"] is False


def test_run_suite_csv_rows_per_instance_and_order():
    report = run_suite(7, 3, dims=[2])
    lines = export_csv(report).strip().split("\n")
    stable = sum(
        1 for r in report["instances"] if not r["uniform"]["no_stable_limit"]
    )
    assert len(lines) == 1 + 3 + stable
    first = lines[1].split(",")
    assert first[0] == "7"
    assert first[1] == str(report["instances"][0]["order"])


def test_run_suite_records_uniform_horizon():
    report = run_suite(7, 1, dims=[2], horizon=6)
    urec = report["instances"][0]["uniform"]
    if not urec["no_stable_limit"]:
        assert urec["order"] == 6


def test_run_suite_counts_each_solve_once(monkeypatch):
    # no sweeps, so every solve with a positive payoff stalls
    solves = []
    real = maximal._solve_from_blocks

    def recording(*args):
        solves.append(real(*args))
        return solves[-1]

    monkeypatch.setattr(maximal, "_solve_from_blocks", recording)
    report = run_suite(10, 4, dims=[2], horizon=6, opts=SolveOptions(max_sweeps=0))
    orders = [r["order"] for r in report["instances"]]
    assert orders == [10, 11, 12, 0]
    # one path per instance: orders 0, 1, ..., max(order, horizon)
    assert len(solves) == sum(max(k, 6) + 1 for k in orders)
    stalled = sum(sol.stalled for sol in solves)
    assert stalled > 0
    assert report["aggregate"]["stalled_solves"] == stalled


def test_run_suite_computes_one_dual_bound_per_instance(monkeypatch):
    calls = count_dual_calls(monkeypatch)
    report = run_suite(10, 4, dims=[2], horizon=6)
    assert report["aggregate"]["stalled_solves"] == 0
    # the pointwise record's order; the limit orders compute none
    assert calls == [r["order"] + 1 for r in report["instances"]]


def test_run_suite_stalled_solves_compute_their_bound_at_once(monkeypatch):
    # no sweeps: a solve that reaches the ascent runs out of them and
    # computes its bound at once; the flags and the count are the ones an
    # eagerly computed bound gives
    calls = count_dual_calls(monkeypatch)
    solves = []
    real = maximal._solve_from_blocks

    def recording(*args):
        before = len(calls)
        solves.append((real(*args), len(calls) - before))
        return solves[-1][0]

    monkeypatch.setattr(maximal, "_solve_from_blocks", recording)
    report = run_suite(10, 4, dims=[2], horizon=6, opts=SolveOptions(max_sweeps=0))
    flags = [int(sol.stalled) for sol, _ in solves]
    assert flags == [1] * 11 + [0] * 12 + [1] * 20
    assert report["aggregate"]["stalled_solves"] == 31
    assert all(computed == sol.stalled for sol, computed in solves)


def test_lazy_dual_bounds_leave_the_suite_report_byte_identical(monkeypatch):
    lazy = dumps(run_suite(0, 6))
    read_every_bound_at_once(monkeypatch)
    assert dumps(run_suite(0, 6)) == lazy


def test_skipping_the_polish_of_fixed_blocks_leaves_the_suite_report_byte_identical(
    monkeypatch,
):
    skipped = dumps(run_suite(0, 6))
    always_polish(monkeypatch)
    assert dumps(run_suite(0, 6)) == skipped


def test_run_suite_reports_the_worst_relative_gap():
    report = run_suite(0, 6, dims=[2])
    rel = [
        r["pointwise"]["gap"] / max(1.0, abs(r["pointwise"]["info"]["dual_bound"]))
        for r in report["instances"]
    ]
    aggregate = report["aggregate"]
    assert aggregate["max_rel_gap"] == max(rel)
    assert aggregate["rel_gaps_above_1e-8"] == sum(g > 1e-8 for g in rel)


def test_suite_pointwise_record_matches_a_direct_certificate():
    report = run_suite(10, 2, dims=[2], horizon=6)
    for rec in report["instances"]:
        inst = suite_instance(rec["seed"], [2])
        cert = pointwise_certificate(inst.a, inst.lam, inst.order, inst.state, inst.ext)
        assert certificate_record(cert, inst.algebra.total_dim) == rec["pointwise"]
