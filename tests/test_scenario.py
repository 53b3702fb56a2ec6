"""Scenario schema, canonical serialization, runner reports, CSV export."""

import numpy as np
import pytest

from ergocert import linalg, maximal, scenario
from ergocert.errors import NoStableLimit, ScenarioError
from ergocert.maximal import pointwise_certificate
from ergocert.scenario import (
    Scenario,
    build_problem,
    certificate_record,
    decode_matrix,
    dumps,
    encode_matrix,
    export_csv,
    load_report,
    load_scenario,
    loads,
    run_scenario,
)

from ergocert.suite import run_suite

from helpers import always_polish, count_dual_calls, read_every_bound_at_once, reference_dumps


def trivial_dict(**over):
    d = {
        "schema_version": 1,
        "mode": "state",
        "algebra": [2],
        "state": [[[0.5, 0.0], [0.0, 0.5]]],
        "map": {"kind": "kraus", "ops": [[[1.0, 0.0], [0.0, 1.0]]]},
        "input": {"kind": "embed", "element": [[[1.0, 0.0], [0.0, 1.0]]]},
        "lambda": 2.0,
        "n_max": 3,
        "horizon": 6,
        "seed": 1,
    }
    d.update(over)
    return d


def tracial_dict(**over):
    d = {
        "schema_version": 1,
        "mode": "tracial_weight",
        "algebra": [2],
        "map": {"kind": "kraus", "ops": [[[0.0, 1.0], [1.0, 0.0]]]},
        "input": {"kind": "embed", "element": [[[0.5, 0.0], [0.0, 0.25]]]},
        "lambda": 1.0,
        "n_max": 0,
        "horizon": 5,
    }
    d.update(over)
    return d


def markov_dict(**over):
    d = {
        "schema_version": 1,
        "mode": "state",
        "map": {
            "kind": "markov_tensor",
            "kernel": [[0.7, 0.3], [0.3, 0.7]],
            "mu": [0.5, 0.5],
            "inner_algebra": [2],
            "inner_state": [[[0.6, 0.0], [0.0, 0.4]]],
        },
        "input": {"kind": "random", "seed": 3, "trace": 1.5},
        "lambda": 0.8,
        "n_max": 2,
        "horizon": 8,
    }
    d.update(over)
    return d


# -- canonical serialization --------------------------------------------------


def test_dumps_sorted_keys_and_trailing_newline():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert loads(text) == {"a": 2, "b": 1}


def test_dumps_floats_keep_decimal_marker():
    text = dumps({"x": 1.0, "y": 0.1, "z": 3})
    parsed = loads(text)
    assert isinstance(parsed["x"], float) and parsed["x"] == 1.0
    assert isinstance(parsed["z"], int)
    # 17 significant digits survive the round trip exactly
    v = 0.1 + 0.2
    assert loads(dumps({"v": v}))["v"] == v


def test_dumps_rejects_non_finite():
    with pytest.raises(ScenarioError):
        dumps({"x": float("nan")})
    with pytest.raises(ScenarioError):
        dumps([float("inf")])


def test_dumps_rejects_unknown_types():
    with pytest.raises(ScenarioError):
        dumps({"x": {1, 2}})
    with pytest.raises(ScenarioError):
        dumps({1: "non-string key"})


def test_dumps_byte_identical_reruns():
    doc = trivial_dict()
    assert dumps(doc) == dumps(dict(reversed(list(doc.items()))))


def _reports():
    # the scenario fixtures' reports: state, markov, tracial, no stable limit
    docs = (trivial_dict(), markov_dict(), tracial_dict(), trivial_dict(horizon=3))
    return [run_scenario(Scenario.from_dict(doc)) for doc in docs]


def _wide_matrix():
    rng = np.random.default_rng(24)
    return encode_matrix(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))


def test_dumps_matches_the_reference_emitter_byte_for_byte():
    docs = [*_reports(), run_suite(0, 5), _wide_matrix(), {"m": [_wide_matrix()]}]
    for doc in docs:
        assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"x": [1.0, float("nan")]}, ScenarioError),
        ([[1, 2], [{"a": float("inf")}]], ScenarioError),
        ({"x": {1, 2}}, ScenarioError),
        ({"a": [0], "b": {1: "non-string key"}}, ScenarioError),
        ({"b": {"a": 1, 2: 3}}, TypeError),
        # the first error in document order wins, keys sorted first
        ([{"a": 1, 2: 3}, float("nan")], TypeError),
        ([{1: 2}, float("nan")], ScenarioError),
        ([float("nan"), {1: 2}], ScenarioError),
        ([["x" * 90], {2}, {1: 2}], ScenarioError),
    ],
)
def test_dumps_raises_the_reference_emitters_errors(doc, error):
    with pytest.raises(error) as ref:
        reference_dumps(doc)
    with pytest.raises(error) as got:
        dumps(doc)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


def test_inline_width_counts_the_lists_own_text():
    # 88 characters go on one line and 89 do not, at depth 0 and at depth 3,
    # where the indentation and the key make the document line longer
    fits, spills = ["x" * 40, "y" * 40], ["x" * 40, "y" * 41]
    one_line = '["' + "x" * 40 + '", "' + "y" * 40 + '"]'
    assert len(one_line) == 88
    assert dumps(fits) == one_line + "\n"
    assert dumps(spills) == '[\n  "' + "x" * 40 + '",\n  "' + "y" * 41 + '"\n]\n'

    def deep(text):
        # the text of {"k": {"k": {"k": v}}} when v, at depth 3, renders as text
        return '{\n  "k": {\n    "k": {\n      "k": ' + text + "\n    }\n  }\n}\n"

    deep_fits, deep_spills = {"k": {"k": {"k": fits}}}, {"k": {"k": {"k": spills}}}
    assert dumps(deep_fits) == deep(one_line)
    assert dumps(deep_spills) == deep(
        '[\n        "' + "x" * 40 + '",\n        "' + "y" * 41 + '"\n      ]'
    )
    for doc in (fits, spills, deep_fits, deep_spills):
        assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc, text",
    [
        # an object never sits inline, not even {}, nor does a list holding one
        ([{}], "[\n  {}\n]"),
        ([[], [{}], ()], "[\n  [],\n  [\n    {}\n  ],\n  []\n]"),
        ({}, "{}"),
        # lists and tuples of lists and scalars do
        ([[]], "[[]]"),
        ((1, (2.0, "a"), None), '[1, [2.0, "a"], null]'),
        # an inner list that fits inside an outer list that does not
        ([["a" * 40], ["b" * 40]], '[\n  ["' + "a" * 40 + '"],\n  ["' + "b" * 40 + '"]\n]'),
    ],
)
def test_inline_rule(doc, text):
    assert dumps(doc) == text + "\n" == reference_dumps(doc)


def _scalar_leaves(obj) -> int:
    if isinstance(obj, dict):
        return sum(_scalar_leaves(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_scalar_leaves(v) for v in obj)
    return 1


def test_dumps_renders_each_scalar_once(monkeypatch):
    calls = []
    real = scenario._fmt_scalar

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(scenario, "_fmt_scalar", counting)
    for doc in (*_reports(), {"m": [_wide_matrix()]}):
        calls.clear()
        dumps(doc)
        assert len(calls) == _scalar_leaves(doc)


def test_loads_rejects_malformed_text():
    with pytest.raises(ScenarioError):
        loads("{not json")


def test_matrix_encode_decode_round_trip():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = decode_matrix(encode_matrix(m))
    assert np.array_equal(back, m)


def test_decode_matrix_accepts_plain_numbers():
    m = decode_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.array([[1, 2], [3, 4]], dtype=np.complex128))


def test_decode_matrix_rejects_bad_shapes():
    with pytest.raises(ScenarioError):
        decode_matrix([[1, 2], [3]])
    with pytest.raises(ScenarioError):
        decode_matrix([])
    with pytest.raises(ScenarioError):
        decode_matrix([[True, False]])
    with pytest.raises(ScenarioError):
        decode_matrix([[[1, 2, 3]]])
    # beyond 1e100 in magnitude, products of entries can overflow
    with pytest.raises(ScenarioError):
        decode_matrix([[1.0, [0.0, -1e101]]])
    assert decode_matrix([[1e100]])[0, 0] == 1e100


# -- schema validation --------------------------------------------------------


def test_scenario_round_trip_through_dict():
    sc = Scenario.from_dict(trivial_dict())
    assert Scenario.from_dict(sc.to_dict()) == sc


@pytest.mark.parametrize(
    "mutation",
    [
        {"schema_version": 2},
        {"mode": "weighted"},
        {"lambda": 0.0},
        {"lambda": -1.0},
        {"n_max": -1},
        {"horizon": 0},
        {"algebra": []},
        {"algebra": [0]},
        {"map": {"kind": "unknown"}},
        {"map": {"kind": "kraus", "ops": []}},
        {"map": {"kind": "kraus", "ops": [[[1.0]]], "weights": [1.0, 2.0]}},
        {"input": {"kind": "mystery"}},
        {"input": {"kind": "random", "seed": 1}},
        {"input": {"kind": "random", "seed": 1, "trace": -2.0}},
        {"input": {"kind": "random", "seed": -1, "trace": 1.0}},
        {"input": {"kind": "random", "seed": 1, "trace": 1e101}},
        {"map": {"kind": "kraus", "ops": [[[1.0]]], "weights": [1e101]}},
        {"tolerances": {"made_up": 1.0}},
        {"tolerances": {"residual": -1.0}},
        {"tolerances": {"window": 0}},
        {"surprise": True},
        {"kind": "report"},
        {"tolerances": {"window": 9}},
    ],
)
def test_scenario_validation_rejects(mutation):
    with pytest.raises(ScenarioError):
        Scenario.from_dict(trivial_dict(**mutation))


def test_scenario_must_be_object():
    with pytest.raises(ScenarioError):
        Scenario.from_dict([1, 2, 3])


def test_tracial_scenario_rejects_state_and_cond_exp():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(tracial_dict(state=[[[0.5, 0.0], [0.0, 0.5]]]))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(tracial_dict(map={"kind": "cond_exp", "partition": [[[0, 1]]]}))


def test_markov_scenario_rejects_top_level_algebra():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(markov_dict(algebra=[2, 2]))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(markov_dict(mode="tracial_weight"))


def test_markov_scenario_rejects_unbounded_mu():
    for mu in ([float("nan"), 0.5], [float("inf"), 0.5], [1e101, 0.5]):
        spec = dict(markov_dict()["map"], mu=mu)
        with pytest.raises(ScenarioError):
            Scenario.from_dict(markov_dict(map=spec))


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "absent.json"))


# -- problem assembly ---------------------------------------------------------


def test_build_problem_trivial():
    prob = build_problem(Scenario.from_dict(trivial_dict()))
    assert prob.algebra.signature == (2,)
    assert prob.state is not None and prob.ext is not None
    assert prob.a.integral() == pytest.approx(1.0, abs=1e-12)
    assert prob.tol is None


def test_build_problem_markov_derives_algebra():
    prob = build_problem(Scenario.from_dict(markov_dict()))
    assert prob.algebra.signature == (2, 2)
    assert prob.a.integral() == pytest.approx(1.5, rel=1e-12)


def test_build_problem_tracial_has_weight():
    prob = build_problem(Scenario.from_dict(tracial_dict()))
    assert prob.state is None and prob.ext is None
    assert prob.weight is not None and prob.weight.tracial


def test_build_problem_random_input_is_deterministic():
    sc = Scenario.from_dict(trivial_dict(input={"kind": "random", "seed": 9, "trace": 2.0}))
    a1 = build_problem(sc).a
    a2 = build_problem(sc).a
    assert all(np.array_equal(x, y) for x, y in zip(a1.rep.blocks, a2.rep.blocks))


def test_build_problem_strict_and_tol_flow_through():
    sc = Scenario.from_dict(trivial_dict(tolerances={"residual": 1e-5, "window": 3}))
    prob = build_problem(sc, strict=True)
    assert prob.opts.strict_cuts is True
    assert prob.opts.window == 3
    assert prob.tol == pytest.approx(1e-5)
    override = build_problem(sc, tol=1e-3)
    assert override.tol == pytest.approx(1e-3)


def test_build_problem_rejects_complex_markov_kernel():
    bad = markov_dict()
    bad["map"]["kernel"] = [[[0.7, 0.1], [0.3, 0.0]], [[0.3, 0.0], [0.7, 0.0]]]
    with pytest.raises(ScenarioError):
        build_problem(Scenario.from_dict(bad))


# -- running scenarios --------------------------------------------------------


def test_run_scenario_trivial_full_pass():
    report = run_scenario(Scenario.from_dict(trivial_dict()))
    assert report["overall_pass"] is True
    assert len(report["pointwise"]) == 4
    for rec in report["pointwise"]:
        assert rec["passed"] is True
        assert rec["projection_trace"] == pytest.approx(rec["dim"])
    assert report["uniform"]["no_stable_limit"] is False
    assert report["uniform"]["passed"] is True
    assert report["tracial"] is None
    assert report["diagnostics"]["stalled_solves"] == 0


def test_run_scenario_report_round_trips():
    report = run_scenario(Scenario.from_dict(trivial_dict()))
    assert loads(dumps(report)) == report


def test_run_scenario_tracial_mode():
    report = run_scenario(Scenario.from_dict(tracial_dict()))
    assert report["pointwise"] is None and report["uniform"] is None
    assert report["tracial"]["passed"] is True
    assert report["overall_pass"] is True


def test_run_scenario_short_horizon_records_no_stable_limit():
    sc = Scenario.from_dict(trivial_dict(horizon=3))
    report = run_scenario(sc)
    assert report["uniform"]["no_stable_limit"] is True
    assert report["diagnostics"]["cluster"] == [1, 2, 3]
    # pointwise certificates still gate the verdict
    assert report["overall_pass"] is True


def test_run_scenario_strict_raises_on_unstable_limit():
    sc = Scenario.from_dict(trivial_dict(horizon=3))
    with pytest.raises(NoStableLimit):
        run_scenario(sc, strict=True)


def test_run_scenario_tolerance_gates_verdict():
    sc = Scenario.from_dict(
        trivial_dict(
            input={"kind": "random", "seed": 5, "trace": 3.0},
            state=[[[0.7, 0.0], [0.0, 0.3]]],
            map={
                "kind": "kraus",
                "ops": [[[0.6, 0.0], [0.3, 0.2]], [[0.1, 0.0], [0.2, 0.5]]],
            },
            **{"lambda": 1.0},
        )
    )
    passing = run_scenario(sc)
    assert passing["overall_pass"] is True
    failing = run_scenario(sc, tol=1e-30)
    assert failing["overall_pass"] is False


def _random_input_scenario(**over):
    return Scenario.from_dict(
        trivial_dict(
            input={"kind": "random", "seed": 5, "trace": 3.0},
            state=[[[0.7, 0.0], [0.0, 0.3]]],
            map={
                "kind": "kraus",
                "ops": [[[0.6, 0.0], [0.3, 0.2]], [[0.1, 0.0], [0.2, 0.5]]],
            },
            **{"lambda": 1.0},
            **over,
        )
    )


@pytest.mark.parametrize("n_max, horizon", [(3, 6), (9, 6), (6, 6)])
def test_run_scenario_solves_each_order_once(monkeypatch, n_max, horizon):
    calls = []
    real = maximal._solve_from_blocks

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(maximal, "_solve_from_blocks", counting)
    report = run_scenario(_random_input_scenario(n_max=n_max, horizon=horizon))
    assert len(report["pointwise"]) == n_max + 1
    # orders 0, 1, ..., max(n_max, horizon), one payoff more per order
    assert calls == [n + 1 for n in range(max(n_max, horizon) + 1)]


def _ascending_tracial_scenario() -> Scenario:
    # element diag(1.5, 0.25) reaches the solver's ascent; tracial_dict()'s
    # diag(0.5, 0.25) makes every payoff <= 0 at lambda 1, so it never does
    element = [[[1.5, 0.0], [0.0, 0.25]]]
    return Scenario.from_dict(tracial_dict(input={"kind": "embed", "element": element}))


def _count_ascents(monkeypatch) -> list[int]:
    calls = []
    real = maximal._ascend_block

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(maximal, "_ascend_block", counting)
    return calls


def test_run_scenario_computes_the_dual_bounds_it_reports(monkeypatch):
    calls = count_dual_calls(monkeypatch)
    report = run_scenario(_random_input_scenario(n_max=3, horizon=6))
    assert report["diagnostics"]["stalled_solves"] == 0
    # the pointwise orders 0..3; the limit orders 4..6 compute none
    assert calls == [1, 2, 3, 4]
    calls.clear()
    ascents = _count_ascents(monkeypatch)
    run_scenario(_ascending_tracial_scenario())
    assert ascents
    assert calls == []


def test_lazy_dual_bounds_leave_reports_byte_identical(monkeypatch):
    scenarios = [
        _random_input_scenario(n_max=3, horizon=6),
        _ascending_tracial_scenario(),
    ]
    ascents = _count_ascents(monkeypatch)
    lazy = [dumps(run_scenario(sc)) for sc in scenarios]
    assert ascents
    read_every_bound_at_once(monkeypatch)
    assert [dumps(run_scenario(sc)) for sc in scenarios] == lazy


def test_skipping_the_polish_of_fixed_blocks_leaves_reports_byte_identical(monkeypatch):
    scenarios = [
        _random_input_scenario(n_max=3, horizon=6),
        _ascending_tracial_scenario(),
    ]
    skipped = [dumps(run_scenario(sc)) for sc in scenarios]
    always_polish(monkeypatch)
    assert [dumps(run_scenario(sc)) for sc in scenarios] == skipped


def test_residual_layer_compresses_stacks_without_operators(monkeypatch):
    # a pointwise record cuts its ceilings from the path's average stacks: it
    # builds no BlockMatrix and decomposes in one eigh_stack call per block
    # and slice
    sc = Scenario.from_dict(
        trivial_dict(
            algebra=[2, 2],
            state=[[[0.3, 0.0], [0.0, 0.2]], [[0.25, 0.0], [0.0, 0.25]]],
            input={"kind": "random", "seed": 5, "trace": 3.0},
            map={
                "kind": "kraus",
                "ops": [
                    [
                        [0.6, 0.0, 0.1, 0.0],
                        [0.3, 0.2, 0.0, 0.1],
                        [0.1, 0.0, 0.5, 0.2],
                        [0.0, 0.2, 0.1, 0.4],
                    ]
                ],
            },
            n_max=20,
            horizon=8,
            **{"lambda": 1.0},
        )
    )
    built, decomposed, records = [], [], []
    real_blocks, real_eigh = linalg._as_blocks, maximal.eigh_stack
    real_slacks = maximal._domination_slacks

    def counting_blocks(blocks, hermitian):
        # every operator's blocks pass here once: a constructor's or a result's
        built.append(hermitian)
        return real_blocks(blocks, hermitian)

    def counting_eigh(stack):
        decomposed.append(len(stack))
        return real_eigh(stack)

    def layer(real):
        def measured(*args):
            before = len(built), len(decomposed)
            out = real(*args)
            records.append((len(built) - before[0], len(decomposed) - before[1]))
            return out

        return measured

    monkeypatch.setattr(linalg, "_as_blocks", counting_blocks)
    monkeypatch.setattr(maximal, "eigh_stack", counting_eigh)
    monkeypatch.setattr(maximal, "_domination_slacks", layer(real_slacks))
    report = run_scenario(sc)
    assert report["overall_pass"] and len(report["pointwise"]) == 21
    assert built, "the counter must see the rest of the pipeline"
    # per record, the slacks; 21 matrices fit one slice
    assert records == [(0, 2)] * 21
    assert all(0.0 < rec["projection_trace"] < 4.0 for rec in report["pointwise"])


def test_direct_pointwise_certificate_matches_report_record():
    sc = _random_input_scenario(n_max=5, horizon=6)
    report = run_scenario(sc)
    prob = build_problem(sc)
    for n in (0, 2, 5):
        cert = pointwise_certificate(
            prob.a, prob.lam, n, prob.state, prob.ext, prob.opts, prob.tol
        )
        assert certificate_record(cert, prob.algebra.total_dim) == report["pointwise"][n]


# -- reports and CSV ----------------------------------------------------------


def test_load_report_rejects_other_documents(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(dumps(trivial_dict()), encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_report(str(p))
    with pytest.raises(ScenarioError):
        load_report(str(tmp_path / "absent.json"))


def test_export_csv_scenario_report():
    report = run_scenario(Scenario.from_dict(trivial_dict()))
    text = export_csv(report)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["instance", "n", "kind", "passed"]
    assert "pointwise_r0" in header and "uniform_r0" in header
    # four pointwise rows plus the uniform row
    assert len(lines) == 1 + 4 + 1
    assert all(line.startswith("0,") for line in lines[1:])
    assert export_csv(report) == text


def test_export_csv_skips_missing_uniform():
    report = run_scenario(Scenario.from_dict(trivial_dict(horizon=3)))
    lines = export_csv(report).strip().split("\n")
    assert len(lines) == 1 + 4
    assert all(",uniform," not in line for line in lines[1:])


def test_export_csv_tracial_report():
    report = run_scenario(Scenario.from_dict(tracial_dict()))
    lines = export_csv(report).strip().split("\n")
    assert len(lines) == 2
    assert ",tracial," in lines[1]
