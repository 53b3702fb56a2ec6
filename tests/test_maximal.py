"""Maximizer, projections, certificates, and the commuting reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import maximal
from ergocert.algebra import (
    Algebra,
    LOneElement,
    Weight,
    random_positive_l1,
    random_state,
    spatial_derivative,
)
from ergocert.dynamics import (
    PositiveMapModel,
    cesaro_reps,
    extend_l1,
    random_certified_map,
)
from ergocert.errors import (
    AmbiguousSpectralCut,
    ConditionsNotMet,
    InputError,
    NonConvergence,
    NoStableLimit,
    NotStochastic,
    NotTracial,
)
from ergocert.linalg import HermitianOperator, op_norm, positive_part
from ergocert.maximal import (
    Certificate,
    KPoint,
    SolveOptions,
    _ascend_block,
    _payoffs,
    _point_objective,
    _swap_screen,
    commutative_oracle,
    diagonal_instance,
    dual_upper_bound,
    extract_projection,
    objective_g,
    pointwise_certificate,
    pre_weak_type_predicate,
    solve_maximizer,
    type_infinity_check,
    uniform_projection,
    weak_type_predicate,
    yeadon_tracial,
)
from ergocert.suite import suite_instance

from helpers import (
    perturbed_eigh,
    reference_dual_upper_bound,
    reference_swap_screen,
    shift_point,
)

HSETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


# -- independent scalar reference ---------------------------------------------


def _scalar_averages(a, rho, P, n):
    """Averages of the weighted action, via an explicit matrix on vectors."""

    d = a.size
    action = np.eye(d) if P is None else np.diag(rho) @ P @ np.diag(1.0 / rho)
    powers = [a]
    for _ in range(n):
        powers.append(action @ powers[-1])
    sums = np.cumsum(np.stack(powers), axis=0)
    return [sums[r] / (r + 1) for r in range(n + 1)]


def _scalar_optimum(a, rho, P, lam, n):
    """Per coordinate the feasible set is a simplex; its vertices are the
    zero assignment and full mass on a single r, so the optimum is the sum
    of max(0, max_r (r+1)(S_r(a)_i - lam rho_i))."""

    avgs = _scalar_averages(a, rho, P, n)
    total = 0.0
    for i in range(a.size):
        vertex_values = [0.0]
        for r in range(n + 1):
            vertex_values.append((r + 1) * (avgs[r][i] - lam * rho[i]))
        total += max(vertex_values)
    return total


def _scalar_exceptional(a, rho, P, lam, n):
    avgs = _scalar_averages(a, rho, P, n)
    out = []
    for i in range(a.size):
        if any(avgs[r][i] > lam * rho[i] for r in range(n + 1)):
            out.append(i)
    return tuple(out)


def _random_kernel(rng, d):
    P = rng.random((d, d)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    mu = np.ones(d) / d
    for _ in range(4000):
        mu = mu @ P
    mu /= mu.sum()
    return P, mu


def _state_payoffs(a, lam, n, state, ext):
    return _payoffs(cesaro_reps(ext.l1_action, a.rep, n), lam, state.rho)


def _certified_instance(seed, dims=(2, 3), trace=3.0):
    algebra = Algebra(dims)
    state = random_state(seed, algebra)
    model = random_certified_map(seed + 1000, algebra, state)
    ext = extend_l1(model, state)
    a = random_positive_l1(seed + 2000, algebra, trace=trace)
    return algebra, state, a, ext


M23 = Algebra((2, 3))


# -- commutative oracle ---------------------------------------------------------


def test_oracle_frozen_example():
    # first coordinate carries 1 > lambda rho = 1/2, second carries 0
    ref = commutative_oracle(
        np.array([1.0, 0.0]), np.array([0.5, 0.5]), None, 1.0, 0
    )
    assert ref.exceptional == (0,)
    assert ref.mass == pytest.approx(0.5, abs=1e-15)
    assert ref.optimum == pytest.approx(0.5, abs=1e-15)
    assert np.array_equal(ref.indicator, np.array([0.0, 1.0]))
    assert ref.mass <= 2.0 / 1.0 * 1.0


def test_oracle_empty_exceptional_set():
    rho = np.array([0.3, 0.7])
    ref = commutative_oracle(rho, rho, None, 2.0, 3)
    assert ref.exceptional == ()
    assert ref.mass == 0.0
    assert ref.optimum == 0.0
    assert np.array_equal(ref.indicator, np.ones(2))


def test_oracle_matches_independent_recursion():
    rng = np.random.default_rng(314)
    for d, n in [(2, 0), (3, 2), (4, 5), (5, 3)]:
        P, mu = _random_kernel(rng, d)
        a = rng.uniform(0.0, 3.0, d)
        lam = float(rng.uniform(0.3, 3.0))
        ref = commutative_oracle(a, mu, P, lam, n)
        assert ref.optimum == pytest.approx(
            _scalar_optimum(a, mu, P, lam, n), abs=1e-10
        )
        assert ref.exceptional == _scalar_exceptional(a, mu, P, lam, n)
        for r in range(n + 1):
            assert np.allclose(
                ref.averages[r], _scalar_averages(a, mu, P, n)[r], atol=1e-12
            )


def test_oracle_input_validation():
    a = np.array([1.0, 0.5])
    rho = np.array([0.5, 0.5])
    with pytest.raises(InputError):
        commutative_oracle(np.array([-1.0, 0.0]), rho, None, 1.0, 0)
    with pytest.raises(InputError):
        commutative_oracle(a, np.array([0.5, 0.6]), None, 1.0, 0)
    with pytest.raises(InputError):
        commutative_oracle(a, rho, None, 0.0, 0)
    with pytest.raises(InputError):
        commutative_oracle(a, rho, None, 1.0, -1)
    with pytest.raises(NotStochastic):
        commutative_oracle(a, rho, np.array([[0.5, 0.4], [0.5, 0.5]]), 1.0, 0)
    with pytest.raises(NotStochastic):
        commutative_oracle(a, rho, -np.eye(2), 1.0, 0)


# -- diagonal equivalence --------------------------------------------------------


def test_diagonal_agreement_fifty_instances():
    rng = np.random.default_rng(2025)
    lams = [0.3, 1.0, 3.0]
    for k in range(50):
        d = 2 + k % 4
        n = k % 5
        lam = lams[k % 3]
        P, mu = _random_kernel(rng, d)
        a = rng.uniform(0.0, 3.0, d)
        algebra, state, a_l1, ext = diagonal_instance(a, mu, P)
        ref = commutative_oracle(a, mu, P, lam, n)
        sol = solve_maximizer(a_l1, lam, n, state, ext)
        scale = max(1.0, abs(ref.optimum))
        assert abs(sol.objective - ref.optimum) <= 1e-8 * scale
        assert sol.gap <= 1e-6 * scale
        e = extract_projection(sol)
        ind = np.array([float(b[0, 0].real) for b in e.blocks])
        assert np.allclose(ind, ref.indicator, atol=1e-9)


def test_diagonal_identity_action_mass_bound():
    rng = np.random.default_rng(88)
    for k in range(10):
        d = 2 + k % 3
        raw = rng.random(d) + 0.05
        mu = raw / raw.sum()
        a = rng.uniform(0.0, 2.0, d)
        lam = 0.7
        ref = commutative_oracle(a, mu, None, lam, 4)
        assert ref.mass <= (1.0 / lam) * float(a.sum()) + 1e-12
        algebra, state, a_l1, ext = diagonal_instance(a, mu, None)
        sol = solve_maximizer(a_l1, lam, 4, state, ext)
        assert abs(sol.objective - ref.optimum) <= 1e-8 * max(1.0, ref.optimum)


# -- solver basics ---------------------------------------------------------------


def test_solve_order_zero_closed_form():
    _, state, a, ext = _certified_instance(3)
    sol = solve_maximizer(a, 1.0, 0, state, ext)
    closed = positive_part(
        HermitianOperator._exact((a.rep - 1.0 * state.rho).blocks)
    ).real_trace()
    assert sol.objective == pytest.approx(closed, abs=1e-9)
    assert sol.dual_bound >= sol.objective - 1e-9


def test_solve_all_payoffs_negative_gives_zeros():
    _, state, _, ext = _certified_instance(5)
    small = LOneElement(HermitianOperator._exact((0.2 * state.rho).blocks))
    sol = solve_maximizer(small, 1.0, 3, state, ext)
    assert sol.objective == 0.0
    assert sol.sweeps == 0
    assert all(op_norm(x) == 0.0 for x in sol.point.xs)
    e = extract_projection(sol)
    assert op_norm(e - state.algebra.identity()) == 0.0


def test_full_mass_point_objective():
    algebra, state, a, ext = _certified_instance(7)
    point = KPoint((algebra.identity(),))
    value = objective_g(point, a, 2.0, state, ext)
    assert value == pytest.approx(a.integral() - 2.0, abs=1e-10)


def test_objective_matches_solution_value():
    for seed in (2, 9, 21):
        _, state, a, ext = _certified_instance(seed)
        sol = solve_maximizer(a, 1.0, 3, state, ext)
        recomputed = objective_g(sol.point, a, 1.0, state, ext)
        assert sol.objective == pytest.approx(recomputed, abs=1e-10)


def test_scaling_covariance():
    _, state, a, ext = _certified_instance(13)
    lam = 1.0
    sol1 = solve_maximizer(a, lam, 3, state, ext)
    doubled = LOneElement(HermitianOperator._exact((2.0 * a.rep).blocks))
    sol2 = solve_maximizer(doubled, 2.0 * lam, 3, state, ext)
    assert sol2.objective == pytest.approx(2.0 * sol1.objective, rel=1e-9)
    e1 = extract_projection(sol1)
    e2 = extract_projection(sol2)
    assert op_norm(e1 - e2) <= 1e-9


def test_monotone_ascent_per_sweep():
    # prefix determinism of the raw cyclic ascent: budget k is a prefix of
    # budget k+1, so objectives along budgets must be nondecreasing
    rng = np.random.default_rng(64)
    d = 3
    bs = []
    for r in range(4):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        bs.append(0.5 * (g + g.conj().T))
    values = []
    for budget in range(1, 9):
        xs = [np.zeros((d, d), dtype=np.complex128) for _ in bs]
        _ascend_block(bs, xs, budget, True)
        values.append(sum(float(np.vdot(b, x).real) for b, x in zip(bs, xs)))
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def _shift_compared(sol, adjoint):
    # g(x) >= g(shift x) at every feasible shifted point: the comparison
    # the mass bound's derivation makes against the returned maximizer;
    # returns whether the shifted point was feasible, so compared
    shifted = shift_point(adjoint, sol.point.xs)
    neg, excess = KPoint(tuple(shifted)).feasibility_defect()
    if neg < -1e-11 or excess > 1e-11:
        return False
    scale = max(1.0, max(op_norm(b) for b in sol.blocks_B))
    assert _point_objective(sol.blocks_B, shifted) <= sol.objective + 1e-9 * scale
    return True


def test_shift_never_improves_a_maximizer(monkeypatch):
    solutions = []
    real = maximal._solve_from_blocks

    def recording(*args):
        solutions.append(real(*args))
        return solutions[-1]

    checked = 0
    for seed in range(12):
        inst = suite_instance(seed)
        adjoint = inst.ext.adjoint_action
        for n in range(1, 5):
            sol = solve_maximizer(inst.a, inst.lam, n, inst.state, inst.ext)
            checked += _shift_compared(sol, adjoint)
        solutions.clear()
        with monkeypatch.context() as m:
            m.setattr(maximal, "_solve_from_blocks", recording)
            try:
                uniform_projection(inst.a, inst.lam, 8, inst.state, inst.ext)
            except NoStableLimit:
                pass
        assert len(solutions) == 8
        for sol in solutions:
            checked += _shift_compared(sol, adjoint)
    assert checked > 0


def test_weak_duality_and_feasibility():
    for seed in range(6):
        _, state, a, ext = _certified_instance(seed, trace=2.0 + seed)
        sol = solve_maximizer(a, 1.0, 4, state, ext)
        scale = max(1.0, a.trace_norm(), 1.0)
        assert sol.objective <= sol.dual_bound + 1e-7 * scale
        neg, excess = sol.point.feasibility_defect()
        assert neg >= -1e-9
        assert excess <= 1e-9
        one = state.algebra.identity()
        z = one - sol.point.total()
        e = extract_projection(sol)
        assert op_norm((one - e) @ z) <= 1e-7


def test_dual_bound_single_payoff_is_positive_part_trace():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = HermitianOperator([0.5 * (g + g.conj().T)])
    assert dual_upper_bound((b,)) == pytest.approx(
        positive_part(b).real_trace(), abs=1e-9
    )
    assert dual_upper_bound(()) == 0.0


def _assert_stacked_kernels_match(blocks):
    got = dual_upper_bound(blocks)
    ref = reference_dual_upper_bound(blocks)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    for c in range(len(blocks[0].dims)):
        stack = np.stack([b.blocks[c] for b in blocks])
        assert np.array_equal(_swap_screen(stack), reference_swap_screen(list(stack)))


def test_stacked_kernels_match_per_operator_reference():
    # corpus payoffs: the prefixes of an order-20 sequence give m = 1 ... 21
    for seed in (0, 1, 2):
        inst = suite_instance(seed)
        blocks = _state_payoffs(inst.a, inst.lam, 20, inst.state, inst.ext)
        for m in range(1, 22):
            _assert_stacked_kernels_match(blocks[:m])
    for seed, dims in ((5, (2, 1)), (6, (3,)), (7, (1, 1, 1))):
        _, state, a, ext = _certified_instance(seed, dims=dims)
        for lam in (0.5, 1.0):
            blocks = _state_payoffs(a, lam, 6, state, ext)
            _assert_stacked_kernels_match(blocks)
    # 20-dim blocks: the stacked calls run in several slices
    _, state, a, ext = _certified_instance(8, dims=(20,), trace=10.0)
    blocks = _state_payoffs(a, 0.5, 11, state, ext)
    _assert_stacked_kernels_match(blocks)
    rng = np.random.default_rng(21)
    for _ in range(3):
        P, mu = _random_kernel(rng, 3)
        _, state, a, ext = diagonal_instance(rng.uniform(0.0, 2.5, 3), mu, P)
        blocks = _state_payoffs(a, 1.0, 8, state, ext)
        _assert_stacked_kernels_match(blocks)


def test_dual_reconstruction_guard_fires(monkeypatch):
    _, state, a, ext = _certified_instance(3)
    blocks = _state_payoffs(a, 1.0, 4, state, ext)
    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(1e-6))
    with pytest.raises(NonConvergence):
        dual_upper_bound(blocks)


def test_stalled_flag_reports_exhausted_budget():
    _, state, a, ext = _certified_instance(17, trace=6.0)
    opts = SolveOptions(max_sweeps=0)
    sol = solve_maximizer(a, 0.5, 3, state, ext, opts)
    assert sol.stalled
    assert sol.objective == 0.0
    assert sol.gap > 0.0
    full = solve_maximizer(a, 0.5, 3, state, ext)
    assert not full.stalled


def test_warm_start_reaches_same_objective():
    _, state, a, ext = _certified_instance(23)
    cold = solve_maximizer(a, 1.0, 3, state, ext)
    warm_point = KPoint(
        tuple(cold.point.xs[:3]) + (state.algebra.zeros(),)
    )
    warm = solve_maximizer(a, 1.0, 3, state, ext, warm=warm_point)
    assert warm.objective >= cold.objective - 1e-9
    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_solver_input_validation():
    algebra, state, a, ext = _certified_instance(29)
    with pytest.raises(InputError):
        solve_maximizer(a, 0.0, 1, state, ext)
    with pytest.raises(InputError):
        solve_maximizer(a, 1.0, -1, state, ext)
    bad = LOneElement(HermitianOperator._exact((-1.0 * a.rep).blocks))
    with pytest.raises(InputError):
        solve_maximizer(bad, 1.0, 1, state, ext)
    other_state = random_state(999, Algebra((4,)))
    with pytest.raises(Exception):
        solve_maximizer(a, 1.0, 1, other_state, ext)
    with pytest.raises(InputError):
        solve_maximizer(a, 1.0, 2, state, ext, warm=KPoint((algebra.zeros(),)))


def test_kpoint_validation_and_defects():
    algebra = Algebra((2,))
    with pytest.raises(InputError):
        KPoint(())
    with pytest.raises(InputError):
        KPoint((algebra.zeros(), Algebra((3,)).zeros()))
    zeros = KPoint.zeros(algebra, 2)
    neg, excess = zeros.feasibility_defect()
    assert neg == 0.0
    assert excess == -1.0
    assert zeros.order == 2
    assert op_norm(zeros.total()) == 0.0


# -- pointwise certificates -------------------------------------------------------


def test_pointwise_certificate_trivial_dominated():
    _, state, _, ext = _certified_instance(31)
    a = spatial_derivative(state)
    cert = pointwise_certificate(a, 2.0, 3, state, ext)
    assert cert.passed
    assert cert.kind == "pointwise"
    assert cert.order == 3
    assert op_norm(cert.projection - state.algebra.identity()) == 0.0
    assert cert.info["exceptional_mass"] == 0.0
    assert cert.residuals["mass_2_over_lambda"] == pytest.approx(1.0, abs=1e-12)


def test_pointwise_certificate_random_instances():
    lams = [0.4, 1.0, 5.0]
    for seed in range(12):
        _, state, a, ext = _certified_instance(
            seed, dims=(2, 3) if seed % 2 else (3,), trace=0.5 + seed
        )
        lam = lams[seed % 3]
        n = seed % 6
        cert = pointwise_certificate(a, lam, n, state, ext)
        assert cert.passed, (seed, cert.residuals)
        for r in range(n + 1):
            assert cert.residuals[f"pointwise_r{r}"] >= -cert.tolerances["residual"]
        assert cert.residuals["mass_2_over_lambda"] >= -cert.tolerances["residual"]
        proj = cert.projection
        assert op_norm(
            HermitianOperator._exact((proj @ proj).blocks) - proj
        ) <= 1e-9


def test_pointwise_certificate_builds_its_averages_once(monkeypatch):
    # S_1(a), ..., S_n(a) take n applications of the L1 action, shared by
    # the payoffs and the domination residuals
    _, state, a, ext = _certified_instance(5)
    applied = []
    real = PositiveMapModel.apply

    def counting(model, x):
        applied.append(model)
        return real(model, x)

    monkeypatch.setattr(PositiveMapModel, "apply", counting)
    for n in (0, 1, 4):
        applied.clear()
        pointwise_certificate(a, 1.0, n, state, ext)
        assert len(applied) == n
        assert all(model is ext.l1_action for model in applied)


def test_pointwise_certificate_informational_sharper_mass():
    # the 1/lambda form is the one the comparison argument yields; record it
    for seed in (1, 4, 8):
        _, state, a, ext = _certified_instance(seed, trace=4.0)
        cert = pointwise_certificate(a, 0.8, 4, state, ext)
        assert cert.info["mass_1_over_lambda"] >= -1e-7 * max(1.0, a.trace_norm())


# -- uniform projection -----------------------------------------------------------


def test_uniform_trivial_instance_full_projection():
    _, state, _, ext = _certified_instance(37)
    a = LOneElement(HermitianOperator._exact((0.2 * state.rho).blocks))
    cert, diag = uniform_projection(a, 1.0, 6, state, ext)
    assert cert.passed
    assert cert.kind == "uniform"
    assert op_norm(cert.projection - state.algebra.identity()) == 0.0
    assert diag.cluster == (1, 2, 3, 4, 5, 6)
    assert diag.inverse_cut_norm == pytest.approx(1.0, abs=1e-12)
    assert cert.residuals["inverse_cut_identity"] >= -1e-12
    assert cert.info["exceptional_mass"] == 0.0


def test_uniform_markov_instance():
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    mu = np.array([0.5, 0.5])
    a = np.array([1.2, 0.1])
    _, state, a_l1, ext = diagonal_instance(a, mu, P)
    cert, diag = uniform_projection(a_l1, 0.8, 8, state, ext)
    assert cert.passed
    assert len(diag.cluster) >= 5
    assert diag.distances[-1] == 0.0
    assert diag.inverse_cut_norm <= 2.0 + 1e-9
    assert cert.residuals["inverse_cut_identity"] >= -1e-9
    assert cert.residuals["mass_2_over_lambda"] >= 0.0
    for r in range(cert.order * 4 + 1):
        assert cert.residuals[f"uniform_r{r}"] >= -cert.tolerances["residual"]


def test_uniform_no_stable_limit_below_window():
    _, state, a, ext = _certified_instance(41)
    with pytest.raises(NoStableLimit) as exc:
        uniform_projection(a, 1.0, 3, state, ext)
    diag = exc.value.diagnostics
    assert diag is not None
    assert diag.window == 5
    assert len(diag.distances) == 3
    assert diag.h is not None


def test_uniform_window_can_be_lowered():
    _, state, a, ext = _certified_instance(41)
    opts = SolveOptions(window=2)
    cert, diag = uniform_projection(a, 1.0, 3, state, ext, opts)
    assert len(diag.cluster) >= 2
    assert isinstance(cert, Certificate)


def test_uniform_check_horizon_must_cover():
    _, state, a, ext = _certified_instance(43)
    with pytest.raises(InputError):
        uniform_projection(a, 1.0, 6, state, ext, SolveOptions(check_horizon=2))
    with pytest.raises(InputError):
        uniform_projection(a, 1.0, 0, state, ext)


def test_strict_cut_at_one_half_raises_in_both_limit_modes(monkeypatch):
    # every extracted projection replaced by 1/2, so the limit h is 1/2
    def half(sol, eps_kernel=None, strict=False):
        return 0.5 * HermitianOperator.identity(sol.point.xs[0].dims)

    monkeypatch.setattr(maximal, "extract_projection", half)
    strict = SolveOptions(strict_cuts=True)
    _, state, a, ext = _certified_instance(37)
    with pytest.raises(AmbiguousSpectralCut):
        uniform_projection(a, 1.0, 6, state, ext, strict)
    algebra = Algebra((2,))
    weight = Weight.tracial_weight(algebra)
    model = PositiveMapModel.identity(algebra)
    a_tr = LOneElement(HermitianOperator._exact((0.5 * algebra.identity()).blocks))
    yeadon_tracial(a_tr, 1.0, 6, algebra, weight, model)
    with pytest.raises(AmbiguousSpectralCut):
        yeadon_tracial(a_tr, 1.0, 6, algebra, weight, model, strict)


# -- tracial reduction -------------------------------------------------------------


def test_tracial_trivial_dominated():
    algebra = Algebra((2,))
    a = LOneElement(HermitianOperator._exact((0.5 * algebra.identity()).blocks))
    cert = yeadon_tracial(
        a, 1.0, 5, algebra, Weight.tracial_weight(algebra),
        PositiveMapModel.identity(algebra),
    )
    assert cert.passed
    assert cert.kind == "tracial"
    assert op_norm(cert.projection - algebra.identity()) == 0.0
    assert cert.residuals["mass_2_over_lambda"] >= 0.0


def test_tracial_requires_tracial_weight():
    algebra = Algebra((2,))
    rho_w = HermitianOperator._exact((2.0 * algebra.identity()).blocks)
    a = LOneElement(HermitianOperator._exact((0.5 * algebra.identity()).blocks))
    with pytest.raises(NotTracial):
        yeadon_tracial(
            a, 1.0, 5, algebra, Weight(algebra, rho_w),
            PositiveMapModel.identity(algebra),
        )


def test_tracial_rejects_nonabsorbing_map():
    algebra = Algebra((2,))
    doubling = PositiveMapModel.from_kraus(
        algebra, [np.sqrt(2.0) * np.eye(2, dtype=np.complex128)]
    )
    # x -> -x keeps T(1) <= 1 and Tr T(x) <= Tr x, and fails the sampled positivity
    negation = PositiveMapModel.from_superop(algebra, -np.eye(4))
    a = LOneElement(HermitianOperator._exact((0.5 * algebra.identity()).blocks))
    weight = Weight.tracial_weight(algebra)
    both = r"^contraction defect 1\.000e\+00; trace increase 1\.000e\+00$"
    with pytest.raises(ConditionsNotMet, match=both):
        yeadon_tracial(a, 1.0, 5, algebra, weight, doubling)
    with pytest.raises(
        ConditionsNotMet, match=r"^sampled positivity defect -1\.000e\+00$"
    ):
        yeadon_tracial(a, 1.0, 5, algebra, weight, negation)


def test_tracial_consistency_with_uniform_state():
    # with the uniform density the weighted pipeline at lambda equals the
    # tracial pipeline at lambda / N: the payoff matrices coincide
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    mu = np.array([0.5, 0.5])
    a = np.array([1.2, 0.1])
    lam = 0.8
    algebra, state, a_l1, ext = diagonal_instance(a, mu, P)
    cert_gen, _ = uniform_projection(a_l1, lam, 8, state, ext)
    cert_tr = yeadon_tracial(
        a_l1, lam / algebra.total_dim, 8, algebra,
        Weight.tracial_weight(algebra), ext.base,
    )
    assert cert_tr.passed
    assert op_norm(cert_gen.projection - cert_tr.projection) <= 1e-12


def test_tracial_operator_inequality_two_lambda():
    rng = np.random.default_rng(53)
    algebra = Algebra((4,))
    weight = Weight.tracial_weight(algebra)
    u, _ = np.linalg.qr(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )
    model = PositiveMapModel.from_kraus(algebra, [u])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = LOneElement(HermitianOperator._exact([0.3 * (g @ g.conj().T)]))
    cert = yeadon_tracial(a, 1.0, 6, algebra, weight, model)
    assert cert.passed
    for r in range(25):
        assert cert.residuals[f"uniform_r{r}"] >= -cert.tolerances["residual"]


# -- predicates ---------------------------------------------------------------------


def test_weak_type_predicate_trivial_true():
    _, state, _, ext = _certified_instance(59)
    a = LOneElement(HermitianOperator._exact((0.3 * state.rho).blocks))
    e = state.algebra.identity()
    assert weak_type_predicate(e, a, 1.0, 2.0, 1.0, state, ext, 5)


def test_weak_type_predicate_fails_on_mass():
    _, state, _, ext = _certified_instance(61)
    a = LOneElement(HermitianOperator._exact((0.3 * state.rho).blocks))
    e = state.algebra.zeros()
    assert not weak_type_predicate(e, a, 1.0, 1e-6, 1.0, state, ext, 2)


def test_weak_type_predicate_fails_on_operator_bound():
    _, state, _, ext = _certified_instance(67)
    a = random_positive_l1(5, state.algebra, trace=5.0)
    e = state.algebra.identity()
    lam = 0.5 * op_norm(a.rep)
    assert not weak_type_predicate(e, a, lam, 100.0, 1.0, state, ext, 0)


def test_weak_type_predicate_validation():
    _, state, _, ext = _certified_instance(71)
    a = LOneElement(HermitianOperator._exact((0.3 * state.rho).blocks))
    e = state.algebra.identity()
    with pytest.raises(InputError):
        weak_type_predicate(e, a, -1.0, 2.0, 1.0, state, ext, 2)
    with pytest.raises(InputError):
        weak_type_predicate(e, a, 1.0, 0.0, 1.0, state, ext, 2)
    with pytest.raises(InputError):
        weak_type_predicate(e, a, 1.0, 2.0, 1.0, state, ext, -1)
    not_proj = HermitianOperator._exact((0.5 * state.algebra.identity()).blocks)
    with pytest.raises(InputError):
        weak_type_predicate(not_proj, a, 1.0, 2.0, 1.0, state, ext, 2)


def test_pre_weak_type_predicate_theorem_form():
    # the uniform certificate is exactly a pre-weak (1,1) witness at
    # threshold 4 lambda with constant 2 when its mass is small enough
    _, state, _, ext = _certified_instance(37)
    a = LOneElement(HermitianOperator._exact((0.2 * state.rho).blocks))
    lam = 1.0
    cert, _ = uniform_projection(a, lam, 6, state, ext)
    assert pre_weak_type_predicate(
        cert.projection, a, 4.0 * lam, 2.0, 1.0, state, ext, 24
    )


def test_pre_weak_type_predicate_fails_on_norm():
    _, state, _, ext = _certified_instance(73)
    a = random_positive_l1(9, state.algebra, trace=5.0)
    e = state.algebra.identity()
    lam = 0.1 * a.trace_norm()
    assert not pre_weak_type_predicate(e, a, lam, 100.0, 1.0, state, ext, 0)


def test_weak_type_algebra_element_path():
    _, state, _, ext = _certified_instance(79)
    x = HermitianOperator._exact((0.2 * state.algebra.identity()).blocks)
    e = state.algebra.identity()
    assert weak_type_predicate(e, x, 1.0, 2.0, 2.0, state, ext, 3)
    assert pre_weak_type_predicate(e, x, 1.0, 2.0, 2.0, state, ext, 3)


def test_type_infinity_identity_and_certified_maps():
    assert type_infinity_check(PositiveMapModel.identity(M23), samples=4, horizon=8)
    algebra = Algebra((2,))
    state = random_state(3, algebra)
    model = random_certified_map(12, algebra, state)
    assert type_infinity_check(model, samples=6, horizon=12)


def test_type_infinity_rejects_expanding_map():
    algebra = Algebra((2,))
    doubling = PositiveMapModel.from_kraus(
        algebra, [np.sqrt(2.0) * np.eye(2, dtype=np.complex128)]
    )
    assert not type_infinity_check(doubling, samples=2, horizon=3)
    with pytest.raises(InputError):
        type_infinity_check(doubling, samples=0)


# -- property: diagonal agreement over seeds ------------------------------------------


@HSETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_diagonal_objective_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    d = 3
    P, mu = _random_kernel(rng, d)
    a = rng.uniform(0.0, 2.5, d)
    lam = float(rng.uniform(0.4, 2.5))
    n = int(rng.integers(0, 4))
    algebra, state, a_l1, ext = diagonal_instance(a, mu, P)
    ref = commutative_oracle(a, mu, P, lam, n)
    sol = solve_maximizer(a_l1, lam, n, state, ext)
    assert abs(sol.objective - ref.optimum) <= 1e-8 * max(1.0, abs(ref.optimum))
    assert sol.objective <= sol.dual_bound + 1e-7 * max(1.0, abs(ref.optimum))
