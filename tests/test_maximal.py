"""Maximizer, projections, certificates, and the commuting reference."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import linalg, maximal
from ergocert.algebra import (
    Algebra,
    LOneElement,
    Weight,
    make_state,
    random_positive_l1,
    random_state,
    spatial_derivative,
)
from ergocert.dynamics import (
    Pedigree,
    PositiveMapModel,
    cesaro_reps,
    extend_l1,
    random_certified_map,
)
from ergocert.errors import (
    AmbiguousSpectralCut,
    ConditionsNotMet,
    DimensionMismatch,
    InputError,
    NonConvergence,
    NoStableLimit,
    NotStochastic,
    NotSubInvariant,
    NotTracial,
)
from ergocert.linalg import (
    KERNEL_EPS,
    BlockMatrix,
    HermitianOperator,
    compress,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    positive_part,
    scaled_tol,
    spectral_projection,
)
from ergocert.maximal import (
    Certificate,
    KPoint,
    MaximizerSolution,
    PayoffLayout,
    ProjectionPath,
    SolveOptions,
    _ascend_block,
    _cluster_tail,
    _extremes,
    _grow_screen,
    _norms,
    _payoff_stacks,
    _point_objective,
    _slices,
    _stacked,
    _state_problem,
    _swap_pass,
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
from ergocert.scenario import certificate_record, dumps
from ergocert.suite import suite_instance

from helpers import (
    always_polish,
    count_dual_calls,
    perturbed_eigh,
    random_hermitian,
    reference_ascend_block,
    reference_dual_upper_bound,
    reference_grow_screen,
    reference_payoffs,
    reference_swap_pass,
    reference_swap_screen,
    reference_type_infinity_check,
    reference_type_infinity_inputs,
    reference_type_infinity_samples,
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
    return reference_payoffs(cesaro_reps(ext.l1_action, a.rep, n), lam, state.rho)


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
        e, _ = extract_projection(sol)
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


def _sparse_stationary_kernel(rng, d):
    # a stochastic kernel with zero entries, kept irreducible by a cycle, and
    # its stationary density
    P = rng.random((d, d)) * (rng.random((d, d)) < 0.6)
    P[np.arange(d), (np.arange(d) + 1) % d] += 0.1
    P /= P.sum(axis=1, keepdims=True)
    w, v = np.linalg.eig(P.T)
    mu = np.abs(v[:, np.argmin(np.abs(w - 1.0))].real)
    return P, mu / mu.sum()


def test_diagonal_lift_keeps_the_matrix_unit_bits():
    # the lift through example_tensor_markov gives the bits of the loop over
    # matrix units it replaced: e_ji with weight P[i, j] per positive entry,
    # and the density from_diagonal(rho)
    rng = np.random.default_rng(154)
    for d in range(1, 6):
        for _ in range(4):
            P, mu = _sparse_stationary_kernel(rng, d)
            ops, weights = [], []
            for i in range(d):
                for j in range(d):
                    if P[i, j] > 0.0:
                        v = np.zeros((d, d), dtype=np.complex128)
                        v[j, i] = 1.0
                        ops.append(v)
                        weights.append(float(P[i, j]))
            rho = HermitianOperator.from_diagonal((1,) * d, mu)
            algebra, state, _, ext = diagonal_instance(rng.uniform(0.0, 2.0, d), mu, P)
            assert algebra.signature == (1,) * d
            assert [v.tobytes() for v in ext.base.kraus_ops] == [v.tobytes() for v in ops]
            assert ext.base.kraus_weights.tobytes() == np.array(weights).tobytes()
            assert [b.tobytes() for b in state.rho.blocks] == [b.tobytes() for b in rho.blocks]


def test_diagonal_lift_rejects_a_kernel_that_is_not_stochastic():
    # once ConditionsNotMet from extend_l1, an InputError on the weights, or
    # (sub-stochastic rows) no error at all
    a, rho = np.array([1.0, 0.5]), np.array([0.5, 0.5])
    for P in (
        [[0.25, 0.25], [0.25, 0.25]],
        [[1.0, 0.5], [0.5, 1.0]],
        [[1.1, -0.1], [0.0, 1.0]],
        [[math.nan, 1.0], [0.0, 1.0]],
        np.ones((2, 3)) / 3,
    ):
        with pytest.raises(NotStochastic):
            diagonal_instance(a, rho, np.asarray(P))


def test_diagonal_lift_rejects_a_density_the_kernel_raises():
    # rho P > rho at the first site: once ConditionsNotMet from extend_l1
    with pytest.raises(NotSubInvariant):
        diagonal_instance(np.array([1.0, 0.5]), np.array([0.8, 0.2]), np.full((2, 2), 0.5))


def test_diagonal_lift_rejects_a_kernel_of_another_size():
    # a larger kernel was cut to its leading block, a smaller one raised IndexError
    a, rho = np.array([1.0, 0.5]), np.array([0.5, 0.5])
    for P in (np.eye(3), np.eye(1)):
        with pytest.raises(DimensionMismatch):
            diagonal_instance(a, rho, P)


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
    e, _ = extract_projection(sol)
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
    e1, _ = extract_projection(sol1)
    e2, _ = extract_projection(sol2)
    assert op_norm(e1 - e2) <= 1e-9


def test_monotone_ascent_per_sweep():
    # prefix determinism of the raw cyclic ascent: budget k is a prefix of
    # budget k+1, so objectives along budgets must be nondecreasing
    rng = np.random.default_rng(64)
    d = 3
    g = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    bs = 0.5 * (g + g.conj().swapaxes(-1, -2))
    values = []
    for budget in range(1, 9):
        xs = [np.zeros((d, d), dtype=np.complex128) for _ in bs]
        _ascend_block(bs, xs, budget, True, reference_swap_screen(bs))
        values.append(sum(float(np.vdot(b, x).real) for b, x in zip(bs, xs)))
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


# -- the ascent on the eigensolver kernel, against the per-matrix ascent ------


def _stacked_kernel_sizes(monkeypatch) -> list[int]:
    # the stack size of every stacked _eigh call of the solver from now on
    sizes = []
    real = maximal._eigh

    def recording(a):
        if a.ndim == 3:
            sizes.append(len(a))
        return real(a)

    monkeypatch.setattr(maximal, "_eigh", recording)
    return sizes


def _assert_same_ascent(bs, xs=None):
    # the ascent and, after a TOL_OBJ stop, the polish, from zero coordinates
    # or from xs: the same bytes, sweeps and stops as the per-matrix ascent
    if xs is None:
        xs = [np.zeros(bs.shape[1:], dtype=np.complex128)] * len(bs)
    screen = reference_swap_screen(list(bs))
    ref = list(xs)
    for budget, to_fixed_point in ((200, False), (30, True)):
        run = _ascend_block(bs, xs, budget, to_fixed_point, screen)
        assert run == reference_ascend_block(bs, ref, budget, to_fixed_point, screen)
        assert all(_same_bits(x, y) for x, y in zip(xs, ref))
        if run[1] != "flat":
            break
    return xs


def test_ascent_on_the_kernel_matches_the_per_matrix_ascent():
    # corpus payoffs on (2, 1), (3,) and (16,) blocks, orders solved in turn
    # as the projection path does: each order starts from the last order's
    # point and one exactly zero coordinate
    cases = ((5, (2, 1), 3.0, 0.5, 14), (6, (3,), 3.0, 1.0, 10), (8, (16,), 10.0, 0.5, 19))
    for seed, dims, trace, lam, n in cases:
        _, state, a, ext = _certified_instance(seed, dims=dims, trace=trace)
        for bs in _state_problem(a, lam, n, state, ext):
            zero = np.zeros(bs.shape[1:], dtype=np.complex128)
            orders = range(n + 1) if bs.shape[1] < 16 else (0, 1, 2, n)
            xs = []
            for k in orders:
                xs = _assert_same_ascent(bs[: k + 1], (xs + [zero] * (k + 1))[: k + 1])
    # 20 coordinates of a 16-dim block from zero: the zero screen and the
    # swap candidates take two slices
    _, state, a, ext = _certified_instance(9, dims=(16,), trace=12.0)
    (bs,) = _state_problem(a, 0.4, 19, state, ext)
    assert bs.shape[0] > _slices(bs)[0].stop
    _assert_same_ascent(bs)


def test_payoffs_at_most_zero_leave_every_coordinate_zero():
    # negative definite payoffs, the zero payoff and diag(0, -1), whose cut
    # has the eigenvalue 0.0 exactly: no zero coordinate moves
    rng = np.random.default_rng(19)
    for d in (1, 2, 3, 16):
        g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        bs = -(g @ g.conj().swapaxes(-1, -2)) - np.eye(d)
        bs[1] = 0.0
        bs[3] = np.diag([0.0] + [-1.0] * (d - 1))
        xs = _assert_same_ascent(bs)
        assert not any(x.any() for x in xs)


def test_a_zero_coordinate_that_moves_drops_the_zero_screen(monkeypatch):
    # from zero, the first screen covers every coordinate; the last one moves,
    # so the ones left are screened again under the new cap
    rng = np.random.default_rng(23)
    d, m = 3, 6
    g = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    bs = 0.5 * (g + g.conj().swapaxes(-1, -2)) + np.eye(d)
    sizes = _stacked_kernel_sizes(monkeypatch)
    xs = _assert_same_ascent(bs)
    assert sizes[:2] == [m, m - 1]
    assert any(x.any() for x in xs[:-1])


def test_a_swap_mid_batch_redoes_the_candidates_after_it(monkeypatch):
    # x_0 = 1/2: B_1 - B_0 is positive on one eigenvector only, so the first of
    # the three candidates takes half of x_0, and the other two are decomposed
    # again with the x_0 left
    q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(29), [2]).blocks[0])

    def rot(*diag):
        return q @ np.diag(np.asarray(diag, dtype=np.complex128)) @ q.conj().T

    bs = np.stack([rot(0.0, 0.0), rot(1.0, -1.0), rot(-1.0, 1.0), rot(2.0, -2.0)])
    xs = [rot(0.5, 0.5)] + [np.zeros((2, 2), dtype=np.complex128)] * 3
    screen = reference_swap_screen(list(bs))
    ref = list(xs)
    sizes = _stacked_kernel_sizes(monkeypatch)
    assert _swap_pass(bs, xs, screen) and reference_swap_pass(bs, ref, screen)
    assert all(_same_bits(x, y) for x, y in zip(xs, ref))
    assert sizes[:2] == [3, 2]


def test_screen_growth_matches_the_per_row_growth():
    # the new entries in slice-sized calls, whatever the old screen's size;
    # 20 matrices of 16 dims span two slices
    rng = np.random.default_rng(31)
    for d, m in ((1, 9), (2, 12), (16, 20)):
        g = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        bs = 0.5 * (g + g.conj().swapaxes(-1, -2))
        for k in (0, 1, m // 2, m - 1):
            old = reference_swap_screen(list(bs[:k]))
            assert _same_bits(_grow_screen(bs, old), reference_grow_screen(bs, old))


def _readme_instance():
    state, ext = _float_limit_instance()
    return state, LOneElement(HermitianOperator([np.diag([1.5, 0.8])])), ext


def test_only_a_block_stopped_on_the_objective_is_polished(monkeypatch):
    # (block dim, to_fixed_point, (sweeps, stop)) of every block ascent
    runs = []
    real = maximal._ascend_block

    def recording(bs, xs, budget, to_fixed_point, screen):
        runs.append((bs.shape[-1], to_fixed_point, real(bs, xs, budget, to_fixed_point, screen)))
        return runs[-1][2]

    monkeypatch.setattr(maximal, "_ascend_block", recording)
    # the README instance's one block ends on a sweep that changed nothing:
    # no polish runs, and the 1 sweep it would take is counted
    state, a, ext = _readme_instance()
    sol = solve_maximizer(a, 1.0, 4, state, ext)
    assert runs == [(2, False, (3, "fixed"))]
    assert sol.sweeps == 3 + 1 and not sol.stalled
    # a 2+3 instance whose 3-dim block alone stops on TOL_OBJ
    runs.clear()
    _, state, a, ext = _certified_instance(5)
    sol = solve_maximizer(a, 0.5, 3, state, ext)
    assert runs == [(2, False, (4, "fixed")), (3, False, (6, "flat")), (3, True, (7, "fixed"))]
    assert sol.sweeps == 6 + 7 and not sol.stalled


def test_skipping_the_polish_of_fixed_blocks_changes_no_solve(monkeypatch):
    # every solve equals the one that polishes each block, bit for bit
    inst23 = _certified_instance(5)[1:]
    inst20 = _certified_instance(8, dims=(20,), trace=10.0)[1:]
    cases = [
        (_readme_instance(), 1.0, 4, SolveOptions()),
        (inst23, 0.5, 3, SolveOptions()),
        (inst20, 0.5, 8, SolveOptions()),
    ]
    # budgets that stall the 2+3 solve; at 5 its 2-dim block stops "fixed"
    cases += [(inst23, 0.5, 3, SolveOptions(max_sweeps=k)) for k in (0, 1, 2, 5)]
    stalled = []
    for (state, a, ext), lam, n, opts in cases:
        got = solve_maximizer(a, lam, n, state, ext, opts)
        with monkeypatch.context() as m:
            always_polish(m)
            want = solve_maximizer(a, lam, n, state, ext, opts)
        assert len(got.xs) == len(want.xs)
        for got_c, want_c in zip(got.xs, want.xs):
            assert len(got_c) == len(want_c)
            assert all(_same_bits(g, w) for g, w in zip(got_c, want_c))
        assert (got.objective, got.sweeps, got.stalled) == (
            want.objective,
            want.sweeps,
            want.stalled,
        )
        stalled.append(got.stalled)
    assert stalled == [False] * 3 + [True] * 4


def _shift_compared(sol, payoffs, adjoint):
    # g(x) >= g(shift x) at every feasible shifted point: the comparison
    # the mass bound's derivation makes against the returned maximizer;
    # ``payoffs`` is the solve's PayoffLayout; returns whether the shifted
    # point was feasible, so compared
    shifted = shift_point(adjoint, sol.point.xs)
    neg, excess = KPoint(tuple(shifted)).feasibility_defect()
    if neg < -1e-11 or excess > 1e-11:
        return False
    # the largest payoff operator norm
    scale = max(1.0, float(np.max(np.abs(payoffs.lows))), float(np.max(np.abs(payoffs.tops))))
    assert _point_objective(payoffs.stacks, _stacked(shifted)) <= sol.objective + 1e-9 * scale
    return True


def test_shift_never_improves_a_maximizer(monkeypatch):
    solutions = []
    real = maximal._solve_from_blocks

    def recording(algebra, layout, *rest):
        # the path's layout as the solve saw it; the path extends it later
        solutions.append((real(algebra, layout, *rest), layout.prefix(len(layout))))
        return solutions[-1][0]

    checked = 0
    horizon = 8
    for seed in range(12):
        inst = suite_instance(seed)
        adjoint = inst.ext.adjoint_action
        for n in range(1, 5):
            sol = solve_maximizer(inst.a, inst.lam, n, inst.state, inst.ext)
            payoffs = PayoffLayout(
                _stacked(_state_payoffs(inst.a, inst.lam, n, inst.state, inst.ext))
            )
            checked += _shift_compared(sol, payoffs, adjoint)
        solutions.clear()
        with monkeypatch.context() as m:
            m.setattr(maximal, "_solve_from_blocks", recording)
            try:
                uniform_projection(inst.a, inst.lam, horizon, inst.state, inst.ext)
            except NoStableLimit:
                pass
        # the projection path solves orders 0, 1, ..., horizon
        assert len(solutions) == horizon + 1
        for sol, payoffs in solutions:
            checked += _shift_compared(sol, payoffs, adjoint)
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
        e, _ = extract_projection(sol)
        assert op_norm((one - e) @ z) <= 1e-7


def test_dual_bound_single_payoff_is_positive_part_trace():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = HermitianOperator([0.5 * (g + g.conj().T)])
    assert dual_upper_bound((b,)) == pytest.approx(
        positive_part(b).real_trace(), abs=1e-9
    )
    assert dual_upper_bound(()) == 0.0


def test_descending_fold_alone_gives_the_bound():
    # three noncommuting 2x2 payoffs on which folding in descending order
    # beats the ascending, by-top-eigenvalue and by-positive-mass folds
    rng = np.random.default_rng(11)
    bs = tuple(random_hermitian(rng, (2,)) for _ in range(3))
    assert op_norm(bs[0] @ bs[1] - bs[1] @ bs[0]) > 1e-3

    def fold(order):
        z = HermitianOperator.zeros((2,))
        for r in order:
            z = z + positive_part(bs[r] - z)
        return z.real_trace()

    by_top = np.argsort([-linalg.max_eigenvalue(b) for b in bs], kind="stable")
    by_mass = np.argsort([-positive_part(b).real_trace() for b in bs], kind="stable")
    others = [fold((0, 1, 2)), fold(by_top), fold(by_mass)]
    descending = fold((2, 1, 0))
    assert descending < min(others) - 1e-6
    assert dual_upper_bound(bs) == pytest.approx(descending, rel=1e-12)


def _assert_stacked_kernels_match(blocks):
    got = dual_upper_bound(blocks)
    ref = reference_dual_upper_bound(blocks)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    layout = PayoffLayout(_stacked(blocks))
    for c in range(len(blocks[0].dims)):
        stack = np.stack([b.blocks[c] for b in blocks])
        assert np.array_equal(layout.stacks[c], stack)
        assert np.array_equal(layout.screen(c), reference_swap_screen(list(stack)))


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_layout(grown, whole):
    assert len(grown) == len(whole)
    for name in ("lows", "tops", "masses"):
        assert _same_bits(getattr(grown, name), getattr(whole, name))
    for c in range(len(whole.stacks)):
        assert _same_bits(grown.stacks[c], whole.stacks[c])
        assert _same_bits(grown.screen(c), whole.screen(c))


def test_stacked_kernels_match_per_operator_reference():
    # corpus payoffs: the prefixes of an order-20 sequence give m = 1 ... 21;
    # a layout grown one payoff at a time equals each prefix's laid out at once
    for seed in (0, 1, 2):
        inst = suite_instance(seed)
        blocks = _state_payoffs(inst.a, inst.lam, 20, inst.state, inst.ext)
        grown = PayoffLayout()
        for m in range(1, 22):
            _assert_stacked_kernels_match(blocks[:m])
            grown.extend(_stacked(blocks[m - 1 : m]))
            _assert_same_layout(grown, PayoffLayout(_stacked(blocks[:m])))
        # screen rows of several new payoffs at once, as after fast-path orders
        chunked = PayoffLayout(_stacked(blocks[:7]))
        chunked.screen(0)
        chunked.extend(_stacked(blocks[7:]))
        _assert_same_layout(chunked, grown)
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


def test_path_lays_out_each_payoff_once(monkeypatch):
    # each payoff block is decomposed once, in the stacked kernels and never
    # per operator, and each screen entry is computed once, however many
    # orders are solved
    _, state, a, ext = _certified_instance(5)
    n = 8
    stacked, screened, decomposed = [], [], []

    def spy(record, real, seen):
        def wrapper(x, *args):
            record.extend(seen(x))
            return real(x, *args)

        return wrapper

    monkeypatch.setattr(
        maximal, "eigh_stack", spy(stacked, maximal.eigh_stack, lambda x: [m.tobytes() for m in x])
    )
    monkeypatch.setattr(maximal, "_eigvalsh", spy(screened, maximal._eigvalsh, lambda x: x))
    monkeypatch.setattr(
        linalg, "eigh", spy(decomposed, linalg.eigh, lambda A: [b.tobytes() for b in A.blocks])
    )
    path = ProjectionPath(a, 0.5, state.rho, ext.l1_action)
    path.step(n)
    payoffs = path.payoffs
    assert len(payoffs) == n + 1
    blocks = [b.tobytes() for stack in payoffs.stacks for b in stack]
    assert [stacked.count(b) for b in blocks] == [1] * len(blocks)
    assert not set(blocks) & set(decomposed)
    # the last order reaches the ascent, so its screen covers every pair of
    # payoffs; its diagonal is 0 and never computed
    assert np.any(payoffs.tops > 0.0)
    assert len(screened) == len(state.algebra.signature) * (n + 1) * n


def _float_limit_instance():
    # the README instance, whose payoffs near the float limit stay finite
    algebra = Algebra((2,))
    state = make_state(algebra, HermitianOperator([np.diag([0.7, 0.3])]))
    T = PositiveMapModel.from_kraus(
        algebra,
        [np.array([[0.6, 0.0], [0.3, 0.2]]), np.array([[0.1, 0.0], [0.2, 0.5]])],
    )
    return state, extend_l1(T, state)


def test_stacked_payoffs_match_the_operator_definition():
    # the payoffs a path lays out and the public solve's stacks are the
    # operators' payoffs, bit for bit
    cases = [
        (_certified_instance(9, dims=(2, 1)), 0.5, 12),
        (_certified_instance(1, dims=(3, 9)), 0.5, 12),
        (_certified_instance(8, dims=(20,), trace=10.0), 0.5, 24),
    ]
    state, ext = _float_limit_instance()
    for diag, n in (((6e307, 3e307), 1), ((1e308, 5e307), 0)):
        a = LOneElement(HermitianOperator([np.diag(diag)]))
        cases.append(((None, state, a, ext), 1.0, n))
    slices = []
    for (_, state, a, ext), lam, n in cases:
        want = _stacked(_state_payoffs(a, lam, n, state, ext))
        path = ProjectionPath(a, lam, state.rho, ext.l1_action)
        path.step(n)
        for got in (path.payoffs.stacks, _state_problem(a, lam, n, state, ext)):
            assert len(got) == len(want)
            assert all(_same_bits(g, w) for g, w in zip(got, want))
        slices.append(len(_slices(want[0])))
    # the 20-dim block's stack spans several slices
    assert slices[2] > 1


def test_payoff_over_a_zero_density_entry_is_a_positive_zero():
    # S_0 holds -0.0 off the diagonal, over the +0.0 of lambda rho there:
    # the operators' S_0 - lambda rho is -0.0 there, _payoff_stacks +0.0
    rho = HermitianOperator([np.diag([0.7, 0.3])])
    s_0 = np.array([[1.5, complex(-0.0, 0.0)], [complex(-0.0, 0.0), 0.8]])
    got = _payoff_stacks(1.0, rho, [s_0[None]], 0)[0][0]
    want = reference_payoffs([HermitianOperator._exact([s_0])], 1.0, rho)[0].blocks[0]
    assert [repr(complex(got[i, j])) for i, j in ((0, 1), (1, 0))] == ["0j", "0j"]
    assert [repr(complex(want[i, j])) for i, j in ((0, 1), (1, 0))] == ["(-0+0j)"] * 2
    assert _same_bits(np.diag(got), np.diag(want))


def test_path_keeps_no_operator_per_order():
    # the averages are drawn, stacked and dropped: only the generator's own
    # running sum and power stay alive, however many orders are stacked
    _, state, a, ext = _certified_instance(5)
    path = ProjectionPath(a, 0.5, state.rho, ext.l1_action)

    def live():
        gc.collect()
        return sum(isinstance(o, BlockMatrix) for o in gc.get_objects())

    before = live()
    stacks = path.average_stacks(60)
    grown = live() - before
    assert len(stacks[0]) == 61
    assert grown <= 2


def test_lazy_dual_bound_reads_the_prefix_of_a_grown_path(monkeypatch):
    # the limit reads no bound; a step's bound, read once the path has grown
    # to the horizon, is that of its own order's payoffs, and it is cached
    _, state, a, ext = _certified_instance(5)
    horizon = 8
    real = maximal.dual_upper_bound
    payoffs = _state_payoffs(a, 0.5, horizon, state, ext)
    calls = count_dual_calls(monkeypatch)
    path = ProjectionPath(a, 0.5, state.rho, ext.l1_action)
    uniform_projection(a, 0.5, horizon, state, ext, path=path)
    assert len(path.payoffs) == horizon + 1
    assert not any(step.stalled for step in path.steps)
    assert calls == []
    assert any(step.sweeps > 0 for step in path.steps)
    for n, step in enumerate(path.steps):
        assert step.dual_bound == real(payoffs[: n + 1])
        assert step.gap == max(0.0, step.dual_bound - step.objective)
    # each step was read twice and computed once
    assert calls == [n + 1 for n in range(horizon + 1)]


def test_layout_keeps_one_bound_per_prefix(monkeypatch):
    # bound(m) is dual_upper_bound of the first m payoffs, bit for bit, made
    # by one call of the module-level function and kept as payoffs are appended
    _, state, a, ext = _certified_instance(5)
    stacks = _stacked(_state_payoffs(a, 0.5, 6, state, ext))
    expected = [dual_upper_bound(PayoffLayout([s[:m] for s in stacks])) for m in range(8)]
    calls = count_dual_calls(monkeypatch)
    layout = PayoffLayout([s[:3] for s in stacks])
    for m in (3, 1, 3, 1):
        # the test module's own dual_upper_bound is not the counted one
        assert repr(layout.bound(m)) == repr(dual_upper_bound(layout.prefix(m)))
        assert repr(layout.bound(m)) == repr(expected[m])
    assert calls == [3, 1]
    layout.extend([s[3:] for s in stacks])
    assert [repr(layout.bound(m)) for m in range(8)] == [repr(b) for b in expected]
    assert calls == [3, 1, 0, 2, 4, 5, 6, 7]


def test_certificate_passes_down_to_exactly_minus_tol():
    # passed is derived from the residuals and tolerances["residual"]: a worst
    # slack of exactly -tol passes, the next float below it fails
    tol = 1e-7
    below = float(np.nextafter(-tol, -math.inf))

    def verdict(worst):
        return Certificate(
            projection=HermitianOperator.identity((1,)),
            lam=1.0,
            kind="pointwise",
            order=0,
            residuals={"a": 1.0, "b": worst},
            tolerances={"residual": tol, "eps_kernel": 1e-8},
            info={},
        ).passed

    assert verdict(-tol) and not verdict(below) and not verdict(math.nan)
    # the certificate functions hand their tol to the same rule
    _, state, a, ext = _certified_instance(5)
    cert = pointwise_certificate(a, 0.5, 3, state, ext)
    worst = cert.worst_residual()
    assert cert.passed
    at = pointwise_certificate(a, 0.5, 3, state, ext, tol=-worst)
    assert at.tolerances["residual"] == -worst and at.passed
    beyond = pointwise_certificate(a, 0.5, 3, state, ext, tol=-np.nextafter(worst, math.inf))
    assert beyond.residuals == cert.residuals and not beyond.passed


def test_path_keeps_solver_arrays_between_orders(monkeypatch):
    # a path carries each solve's point to the next order in the solver's
    # own arrays: it builds no KPoint, and the solve writes into no warm
    # array, which the previous order's solution shares
    built, warm_starts = [], []
    real_post_init = KPoint.__post_init__
    real_solve = maximal._solve_from_blocks

    def counting(self):
        built.append(len(self.xs))
        real_post_init(self)

    def read_only_warm(algebra, layout, opts, warm):
        if warm is not None:
            warm_starts.append(len(layout))
            for x in (x for xc in warm for x in xc):
                x.flags.writeable = False
        return real_solve(algebra, layout, opts, warm)

    monkeypatch.setattr(KPoint, "__post_init__", counting)
    monkeypatch.setattr(maximal, "_solve_from_blocks", read_only_warm)
    # an instance whose warm orders move blocks that the previous order set
    _, state, a, ext = _certified_instance(1)
    path = ProjectionPath(a, 0.5, state.rho, ext.l1_action)
    path.step(8)
    assert any(step.sweeps > 0 for step in path.steps)
    assert warm_starts == list(range(2, 10))
    assert built == []


def test_solution_point_and_projection_read_the_solver_arrays():
    for seed in (2, 9, 21):
        _, state, a, ext = _certified_instance(seed)
        sol = solve_maximizer(a, 1.0, 3, state, ext)
        assert sol.sweeps > 0 and sol.order == 3
        assert sol.point is sol.point
        for r, x in enumerate(sol.point.xs):
            for c, block in enumerate(x.blocks):
                assert _same_bits(block, sol.xs[c][r])
        # the cut of 1 - sum_r x_r, formed from the K-point
        z = state.algebra.identity() - sol.point.total()
        eps = scaled_tol(z, KERNEL_EPS)
        ref = spectral_projection(z, (eps, math.inf), eps_kernel=eps)
        e, got_eps = extract_projection(sol)
        assert got_eps == eps
        assert all(_same_bits(p, q) for p, q in zip(e.blocks, ref.blocks))
        # an explicit width is the cut point and the band alike
        for width in (1e-6, 0.25):
            ref = spectral_projection(z, (width, math.inf), eps_kernel=width)
            e, got_eps = extract_projection(sol, width)
            assert got_eps == width
            assert all(_same_bits(p, q) for p, q in zip(e.blocks, ref.blocks))


def _solution(*blocks):
    # a solve's result holding the given coordinates, xs[c][r]; extraction
    # reads only the arrays
    return MaximizerSolution(tuple(blocks), 0.0, 0, False, None)


def test_exchange_residual_gate_fires_outside_k():
    # coordinates summing to 2 * 1 leave K: z = -1 has no support, so
    # (1 - e) z = -1 and the residual 1 is far above ten cut widths
    for dims in ((2,), (2, 1)):
        one = [np.eye(d, dtype=np.complex128) for d in dims]
        sol = _solution(*[(b, b.copy()) for b in one])
        for eps_kernel in (None, 1e-6):
            with pytest.raises(NonConvergence, match="support extraction left a residual"):
                extract_projection(sol, eps_kernel)


def test_strict_extraction_flags_only_the_band_above_the_width():
    # z = diag(w, 1) up to roundoff, width 1e-8: eigenvalues up to the width are
    # z's kernel; those in (eps, 2 eps] are pushed out of e, ambiguous under strict
    eps = KERNEL_EPS
    for w, kept in ((0.0, 1.0), (1e-16, 1.0), (-1e-16, 1.0), (0.5 * eps, 1.0), (3 * eps, 2.0)):
        sol = _solution((np.diag([1.0 - w, 0.0]).astype(np.complex128),))
        e, got = extract_projection(sol, strict=True)
        assert got == eps and e.real_trace() == kept
        loose, _ = extract_projection(sol)
        assert all(_same_bits(p, q) for p, q in zip(e.blocks, loose.blocks))
    for w in (1.2 * eps, 1.5 * eps, 1.9 * eps):
        sol = _solution((np.diag([1.0 - w, 0.0]).astype(np.complex128),))
        e, _ = extract_projection(sol)
        assert e.real_trace() == 1.0
        with pytest.raises(AmbiguousSpectralCut, match="of cut point 1e-08"):
            extract_projection(sol, strict=True)


def test_payoffs_near_the_float_limit_certify():
    # halving before the hermitian sum keeps every payoff finite
    state, ext = _float_limit_instance()
    for diag, n in (((6e307, 3e307), 1), ((1e308, 5e307), 0)):
        a = LOneElement(HermitianOperator([np.diag(diag)]))
        assert pointwise_certificate(a, 1.0, n, state, ext).passed


def test_dual_reconstruction_guard_fires(monkeypatch):
    _, state, a, ext = _certified_instance(3)
    blocks = _state_payoffs(a, 1.0, 4, state, ext)
    monkeypatch.setattr(linalg, "_eigh", perturbed_eigh(1e-6))
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


def test_only_a_stalled_solve_computes_its_dual_bound_at_once(monkeypatch):
    _, state, a, ext = _certified_instance(17, trace=6.0)
    real = maximal.dual_upper_bound
    calls = count_dual_calls(monkeypatch)
    stalled = solve_maximizer(a, 0.5, 3, state, ext, SolveOptions(max_sweeps=0))
    assert stalled.stalled and calls == [4]
    full = solve_maximizer(a, 0.5, 3, state, ext)
    assert not full.stalled and calls == [4]
    payoffs = _state_payoffs(a, 0.5, 3, state, ext)
    assert full.dual_bound == stalled.dual_bound == real(payoffs)
    assert calls == [4, 4]


def test_solver_input_validation():
    _, state, a, ext = _certified_instance(29)
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
    # S_1(a), ..., S_n(a) take n applications of the L1 action's array
    # action, shared by the payoffs and the domination residuals
    _, state, a, ext = _certified_instance(5)
    applied = []
    real = PositiveMapModel._act

    def counting(model, blocks):
        applied.append(model)
        return real(model, blocks)

    monkeypatch.setattr(PositiveMapModel, "_act", counting)
    for n in (0, 1, 4):
        applied.clear()
        pointwise_certificate(a, 1.0, n, state, ext)
        assert len(applied) == n
        assert all(model is ext.l1_action for model in applied)


def test_non_finite_averages_keep_their_typed_error():
    # an unchecked action that overflows at S_1: the array recursion raises
    # the error an operator's blocks raise
    algebra = Algebra((2,))
    action = PositiveMapModel.from_kraus(algebra, [np.eye(2)], [1e300])
    a = LOneElement(1e10 * algebra.identity())
    path = ProjectionPath(a, 1.0, algebra.identity(), action)
    with np.errstate(over="ignore"):
        with pytest.raises(InputError, match="block entries must be finite"):
            path.average_stacks(1)
        with pytest.raises(InputError, match="block entries must be finite"):
            cesaro_reps(action, a.rep, 1)


def test_pointwise_certificate_decomposes_its_kernel_once(monkeypatch):
    # per order one checked decomposition of each block of z and one cut width;
    # the eps_kernel tolerance is the width extract_projection cut z with
    _, state, a, ext = _certified_instance(5)
    spectra, widths, inside = [], [], []
    real_extract, real_eigh, real_cut = (
        maximal.extract_projection,
        maximal.eigh_stack,
        maximal._cut,
    )

    def extracting(sol, *args):
        inside.append(sol)
        try:
            return real_extract(sol, *args)
        finally:
            inside.pop()

    def decomposing(stack):
        out = real_eigh(stack)
        if inside:
            z = np.eye(len(stack[0])) - sum(inside[-1].xs[len(spectra)])
            assert len(stack) == 1 and np.allclose(stack[0], z, rtol=0.0, atol=1e-12)
            spectra.append(out[0])
        return out

    def cutting(*args):
        out = real_cut(*args)
        widths.append(out[0])
        return out

    monkeypatch.setattr(maximal, "extract_projection", extracting)
    monkeypatch.setattr(maximal, "eigh_stack", decomposing)
    monkeypatch.setattr(maximal, "_cut", cutting)
    cert = pointwise_certificate(a, 1.0, 0, state, ext)
    assert len(spectra) == len(state.algebra.signature) and len(widths) == 1
    width = KERNEL_EPS * max(1.0, max(float(np.max(np.abs(w))) for w in spectra))
    assert cert.tolerances["eps_kernel"] == widths[0] == width
    path = ProjectionPath(a, 1.0, state.rho, ext.l1_action)
    for n in range(4):
        spectra.clear()
        widths.clear()
        pointwise_certificate(a, 1.0, n, state, ext, path=path)
        assert len(spectra) == len(state.algebra.signature) and len(widths) == 1


def _operator_slack(e, ceiling, s_r):
    # the domination residual as operators define it, one operator per r
    return min_eigenvalue(compress(e, ceiling - s_r))


def _same_floats(got, want):
    # bit for bit: repr tells -0.0 from 0.0
    return [repr(v) for v in got] == [repr(v) for v in want]


def _has_negative_zero(values):
    return any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values)


def test_stacked_pointwise_slacks_match_the_operator_definition():
    # on (2, 1) the compressed blocks often tie at -0.0 and 0.0; the least
    # eigenvalue is the first block's, as min_eigenvalue takes it
    _, state, a, ext = _certified_instance(9, dims=(2, 1))
    path = ProjectionPath(a, 0.5, state.rho, ext.l1_action)
    want_all = []
    for n in range(6):
        cert = pointwise_certificate(a, 0.5, n, state, ext, path=path)
        got = [cert.residuals[f"pointwise_r{r}"] for r in range(n + 1)]
        want = [
            _operator_slack(cert.projection, 0.5 * state.rho, s_r)
            for s_r in cesaro_reps(ext.l1_action, a.rep, n)
        ]
        assert _same_floats(got, want)
        want_all += want
    assert _has_negative_zero(want_all)


def test_stacked_tracial_slacks_match_the_operator_definition():
    algebra = Algebra((2, 1))
    one = algebra.identity()
    T = random_certified_map(1003, algebra, make_state(algebra, (1.0 / 3.0) * one))
    a = random_positive_l1(2003, algebra, trace=3.0)
    lam, horizon = 0.5, 5
    cert = yeadon_tracial(a, lam, horizon, algebra, Weight.tracial_weight(algebra), T)
    e_last = ProjectionPath(a, lam, one, T).step(horizon).projection
    seq = cesaro_reps(T, a.rep, 4 * horizon)
    families = (
        ("pointwise_r", e_last, lam * one, seq[: horizon + 1]),
        ("uniform_r", cert.projection, (2.0 * lam) * one, seq),
    )
    want_all = []
    for prefix, e, ceiling, averages in families:
        got = [cert.residuals[f"{prefix}{r}"] for r in range(len(averages))]
        want = [_operator_slack(e, ceiling, s_r) for s_r in averages]
        assert _same_floats(got, want)
        want_all += want
    assert _has_negative_zero(want_all)


def test_stacked_uniform_traces_match_the_per_block_definition():
    # two blocks, one of them past numpy's unrolled summation width
    _, state, a, ext = _certified_instance(1, dims=(3, 9))
    cert, _ = uniform_projection(a, 0.5, 6, state, ext)
    e = cert.projection
    assert 0.0 < e.real_trace() < 12.0
    averages = cesaro_reps(ext.l1_action, a.rep, 24)
    want = [
        4.0 * 0.5
        - float(sum(np.trace(eb @ sb @ eb).real for eb, sb in zip(e.blocks, s_r.blocks)))
        for s_r in averages
    ]
    assert _same_floats([cert.residuals[f"uniform_r{r}"] for r in range(25)], want)


def test_path_stepped_out_of_order_gives_a_fresh_paths_records():
    # the average stacks are read as prefixes and extended in any order
    algebra, state, a, ext = _certified_instance(5)
    path = ProjectionPath(a, 1.0, state.rho, ext.l1_action)
    path.step(10)
    for n in (6, 2, 9, 0, 10):
        cert = pointwise_certificate(a, 1.0, n, state, ext, path=path)
        fresh = pointwise_certificate(a, 1.0, n, state, ext)
        dim = algebra.total_dim
        assert dumps(certificate_record(cert, dim)) == dumps(certificate_record(fresh, dim))


def test_certificates_reject_a_path_of_another_problem():
    algebra, state, a, ext = _certified_instance(5)
    path = ProjectionPath(a, 1.0, state.rho, ext.l1_action)
    other_a = random_positive_l1(77, algebra, trace=3.0)
    other_state = random_state(78, algebra)
    other_ext = extend_l1(random_certified_map(79, algebra, other_state), other_state)
    for args, opts in (
        ((other_a, 1.0, 2, state, ext), SolveOptions()),
        ((a, 0.5, 2, state, ext), SolveOptions()),
        ((a, 1.0, 2, other_state, other_ext), SolveOptions()),
        ((a, 1.0, 2, state, ext), SolveOptions(window=3)),
    ):
        with pytest.raises(InputError):
            pointwise_certificate(*args, opts, path=path)
        with pytest.raises(InputError):
            uniform_projection(*args, opts, path=path)
    assert path.steps == []


def test_pointwise_certificate_informational_sharper_mass():
    # the 1/lambda form is the one the comparison argument yields; record it
    for seed in (1, 4, 8):
        _, state, a, ext = _certified_instance(seed, trace=4.0)
        cert = pointwise_certificate(a, 0.8, 4, state, ext)
        assert cert.info["mass_1_over_lambda"] >= -1e-7 * max(1.0, a.trace_norm())


# -- family spectra ------------------------------------------------------------------


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def _assert_family_reads_each_operator(ops):
    # the kernel's lows, tops and norms are min_eigenvalue, max_eigenvalue and
    # op_norm of each operator alone, bit for bit
    stacks = _stacked(ops)
    lows, tops = _extremes([stack[part] for part in _slices(stack)] for stack in stacks)
    assert lows.tobytes() == _bits([min_eigenvalue(op) for op in ops])
    assert tops.tobytes() == _bits([max_eigenvalue(op) for op in ops])
    assert _norms(stacks).tobytes() == _bits([op_norm(op) for op in ops])


def test_family_extremes_match_each_operator_alone():
    rng = np.random.default_rng(17)
    for dims in ((2, 1), (3, 2, 1), (1, 1, 1), (4,)):
        for scale in (1e-3, 1.0, 1e3):
            _assert_family_reads_each_operator(
                [random_hermitian(rng, dims, scale) for _ in range(7)]
            )
    # a (2, 1) family whose extremes tie at a signed zero across the blocks:
    # the first block wins, where a reduction over the blocks may not
    tied = [
        ((0.0, 1.0), (-0.0,)),
        ((-0.0, 1.0), (0.0,)),
        ((-1.0, -0.0), (0.0,)),
        ((-1.0, 0.0), (-0.0,)),
        ((0.0, 0.0), (-0.0,)),
        ((-0.0, -0.0), (0.0,)),
    ]
    ops = [HermitianOperator([np.diag(b0), np.diag(b1)]) for b0, b1 in tied]
    _assert_family_reads_each_operator(ops)
    lows, tops = _extremes([stack] for stack in _stacked(ops))
    assert [repr(float(x)) for x in lows[:2]] == ["0.0", "-0.0"]
    assert [repr(float(x)) for x in tops[2:4]] == ["-0.0", "0.0"]
    # a stack long enough to span several slices in each block
    ops = [random_hermitian(rng, (20, 3)) for _ in range(25)]
    assert len(_slices(_stacked(ops)[0])) > 2
    _assert_family_reads_each_operator(ops)


def test_layout_extremes_keep_the_first_blocks_signed_zero():
    # the one payoff diag(-1, 0) + (-0): its largest eigenvalue ties at a signed
    # zero across the blocks, and the layout takes it as max_eigenvalue does
    payoff = HermitianOperator([np.diag([-1.0, 0.0]), np.diag([-0.0])])
    layout = PayoffLayout(_stacked([payoff]))
    assert repr(float(layout.tops[0])) == "0.0" == repr(max_eigenvalue(payoff))
    assert repr(float(layout.lows[0])) == "-1.0"
    # and on the tied family of the extremes test, row for row
    tied = [((0.0, 1.0), (-0.0,)), ((-1.0, -0.0), (0.0,)), ((-1.0, 0.0), (-0.0,))]
    ops = [HermitianOperator([np.diag(b0), np.diag(b1)]) for b0, b1 in tied]
    layout = PayoffLayout(_stacked(ops))
    assert [repr(float(x)) for x in layout.lows] == [repr(min_eigenvalue(op)) for op in ops]
    assert [repr(float(x)) for x in layout.tops] == [repr(max_eigenvalue(op)) for op in ops]


def _rank_half_projections(rng, dims, k):
    out = []
    for _ in range(k):
        blocks = []
        for d in dims:
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            blocks.append(u[:, : d // 2] @ u[:, : d // 2].conj().T)
        out.append(HermitianOperator(blocks))
    return out


def test_cluster_distances_are_the_pairwise_op_norms():
    rng = np.random.default_rng(5)
    for dims in ((2, 1), (3, 2), (24,)):
        es = _rank_half_projections(rng, dims, 6)
        # repeats give exact zero distances, a near copy a tiny one
        es += [es[0], es[2], es[2] + HermitianOperator._exact([1e-9 * b for b in es[1].blocks])]
        members, dist = _cluster_tail(es, 1e-6)
        for i in range(len(es)):
            want = [op_norm(es[i] - es[j]) if j != i else 0.0 for j in range(len(es))]
            assert dist[i].tobytes() == _bits(want)
        assert members == [2, 7, 8]


def test_family_reads_take_no_operator_norm_or_pair_operator(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a family is read one operator at a time")

    built = []
    real_as_blocks = linalg._as_blocks

    def counting(blocks, hermitian):
        built.append(hermitian)
        return real_as_blocks(blocks, hermitian)

    es = _rank_half_projections(np.random.default_rng(8), (3, 2), 6)
    algebra = Algebra((2, 3))
    models = [
        PositiveMapModel.identity(algebra),
        random_certified_map(12, algebra, random_state(3, algebra)),
    ]
    monkeypatch.setattr(maximal, "op_norm", forbidden)
    monkeypatch.setattr(linalg, "_as_blocks", counting)
    _cluster_tail(es, 1e-6)
    assert built == []
    for model in models:
        assert type_infinity_check(model, samples=4, horizon=5)


def test_cluster_transient_stays_one_row_of_differences():
    # all 105 pair differences of 15 projections of a (24,) algebra at once
    # take about 4 MiB; one row of differences at a time stays far below 2 MiB
    es = _rank_half_projections(np.random.default_rng(24), (24,), 15)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _cluster_tail(es, 1e-6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


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
        return 0.5 * HermitianOperator.identity(sol.point.xs[0].dims), 1e-8

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
    with pytest.raises(InputError):
        type_infinity_check(doubling, samples=2, horizon=0)
    for bad in ({"horizon": 2.5}, {"samples": 2.5}, {"horizon": math.inf}):
        with pytest.raises(InputError):
            type_infinity_check(doubling, **bad)


def _sampled_norms(algebra, samples):
    # the check's own draw: seeded complex Gaussians g, test elements g g*
    return [op_norm(x) for x in reference_type_infinity_samples(algebra, samples)]


@pytest.mark.parametrize("dims", [(2, 1), (3,), (8, 16)])
def test_type_infinity_draws_the_reference_inputs_into_stacks(monkeypatch, dims):
    # the identity and the samples, drawn straight into per-block stacks, keep
    # the bits of the operators they replaced, and the verdicts stay those of
    # the check on the operators' stacks, for both pedigrees and both outcomes
    algebra = Algebra(dims)
    certified = random_certified_map(5, algebra, random_state(6, algebra))
    superop = certified.as_superop()
    # grown so that ||T(1)|| = 2
    grow = 2.0 / op_norm(certified.apply(algebra.identity()))
    weights = grow * np.asarray(certified.kraus_weights)
    models = [
        certified,
        PositiveMapModel.from_superop(algebra, superop, Pedigree.SAMPLED_POSITIVE),
        PositiveMapModel.from_kraus(algebra, certified.kraus_ops, weights),
        PositiveMapModel.from_superop(algebra, grow * superop, Pedigree.UNVERIFIED),
    ]
    assert [m.pedigree for m in models] == [
        Pedigree.CONSTRUCTED_POSITIVE,
        Pedigree.SAMPLED_POSITIVE,
        Pedigree.CONSTRUCTED_POSITIVE,
        Pedigree.UNVERIFIED,
    ]
    families = []
    real_norms = maximal._norms

    def recording(stacks):
        families.append(stacks)
        return real_norms(stacks)

    monkeypatch.setattr(maximal, "_norms", recording)
    expected = reference_type_infinity_inputs(algebra, 12)
    verdicts = []
    for model in models:
        families.clear()
        verdicts.append(type_infinity_check(model, samples=12, horizon=6))
        inputs = families[0]
        assert [s.shape for s in inputs] == [(13, d, d) for d in dims]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, expected))
        assert verdicts[-1] == reference_type_infinity_check(model, samples=12, horizon=6)
    assert verdicts == [True, True, False, False]


def test_type_infinity_tests_a_constructed_map_on_the_identity_alone(monkeypatch):
    # exact positivity: S_1(1), ..., S_horizon(1) take horizon applications
    # of the array action in one recursion whose only input is the identity,
    # and the samples only set the bound
    algebra = Algebra((2, 3))
    model = random_certified_map(12, algebra, random_state(3, algebra))
    assert model.pedigree is Pedigree.CONSTRUCTED_POSITIVE
    applied, averaged = [], []
    real_act, real_averages = PositiveMapModel._act, maximal._averages

    def counting(T, blocks):
        applied.append(blocks)
        return real_act(T, blocks)

    def recording(act, blocks, hermitian, n):
        averaged.append(blocks)
        return real_averages(act, blocks, hermitian, n)

    monkeypatch.setattr(PositiveMapModel, "_act", counting)
    monkeypatch.setattr(maximal, "_averages", recording)
    one = algebra.identity()
    for horizon in (1, 7, 20):
        applied.clear()
        averaged.clear()
        assert type_infinity_check(model, samples=12, horizon=horizon)
        assert len(applied) == horizon
        assert len(averaged) == 1
        assert [stack.shape[0] for stack in averaged[0]] == [1, 1]
        assert all(np.array_equal(s[0], i) for s, i in zip(averaged[0], one.blocks))


def test_type_infinity_identity_bound_is_no_looser():
    # T(x) = (1 + eps) x at horizon 1: S_1(1) = 1 + eps/2 is inside the
    # identity's own 1 + 1e-9, but a sample x of norm above 2 has
    # ||S_1(x)|| = ||x|| (1 + eps/2) > ||x|| + 1e-9
    algebra = Algebra((2,))
    eps = 1e-9
    grown = PositiveMapModel.from_kraus(
        algebra, [np.eye(2, dtype=np.complex128)], [1.0 + eps]
    )
    assert op_norm(cesaro_reps(grown, algebra.identity(), 1)[1]) <= 1.0 + 1e-9
    assert max(_sampled_norms(algebra, 12)) > 2.0
    assert not type_infinity_check(grown, samples=12, horizon=1)


def test_type_infinity_samples_maps_of_inexact_positivity():
    # x -> x + c (x11 - x22) sigma_z is unital and hermiticity-preserving
    # but sends diag(1, 0) to diag(1 + c, -c): only the samples catch it
    algebra = Algebra((2,))
    c = 0.5
    matrix = np.eye(4)
    matrix[0, 0] = matrix[3, 3] = 1.0 + c
    matrix[0, 3] = matrix[3, 0] = -c
    for pedigree in (Pedigree.UNVERIFIED, Pedigree.SAMPLED_POSITIVE):
        model = PositiveMapModel.from_superop(algebra, matrix, pedigree)
        identity_averages = cesaro_reps(model, algebra.identity(), 20)
        assert all(op_norm(s) <= 1.0 + 1e-9 for s in identity_averages)
        assert not type_infinity_check(model)


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
