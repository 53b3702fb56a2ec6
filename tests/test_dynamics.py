"""Map-model tests: condition checks, L1 extension, adjoints, averages.

Derived expectations are computed against independent oracles built in
this file: the vec-basis matrix of the trace adjoint, hand-evaluated
Markov actions, and a standard-form construction of the generalized
conditional expectation that goes through explicit Hilbert-space
projections rather than pinching.  The array action and the Cesaro
recursion on arrays are pinned bit for bit to the operator code they
replaced (``tests/helpers.py``).
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergocert.algebra import (
    Algebra,
    LOneElement,
    State,
    kosaki_norm,
    make_state,
    random_positive_l1,
    random_state,
    spatial_derivative,
)
from ergocert.dynamics import (
    Pedigree,
    PositiveMapModel,
    adjoint_map,
    cesaro,
    cesaro_reps,
    cesaro_sequence,
    check_conditions,
    example_cond_expectation,
    example_tensor_markov,
    extend_l1,
    random_certified_map,
)
from ergocert.errors import (
    ConditionsNotMet,
    DimensionMismatch,
    DomainError,
    InputError,
    NotStochastic,
    NotSubalgebra,
    NotSubInvariant,
)
from ergocert.linalg import (
    BlockMatrix,
    HermitianOperator,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    schatten_norm,
)
from ergocert import maximal
from ergocert.maximal import weak_type_predicate
from helpers import (
    random_block_matrix,
    random_hermitian,
    random_psd,
    reference_apply,
    reference_averages,
    reference_lp_apply,
    reference_superop,
)

HSETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

M2 = Algebra((2,))
M23 = Algebra((2, 3))


def _herm(seed: int, dims, scale: float = 1.0) -> HermitianOperator:
    return random_hermitian(np.random.default_rng(seed), dims, scale)


def _state_m2(p: float = 0.7) -> State:
    return make_state(M2, HermitianOperator.from_diagonal((2,), [p, 1.0 - p]))


def _pair_trace(a: BlockMatrix, x: BlockMatrix) -> float:
    return (a @ x).real_trace()


# -- trace adjoint oracle ----------------------------------------------------


def test_trace_adjoint_matches_vec_conjugate_transpose():
    # adjoint for <A,B> = Tr(A* B) must be the conjugate transpose in the
    # orthonormal entry basis, whatever the storage kind
    state = random_state(3, M23)
    model = random_certified_map(11, M23, state)
    m = model.as_superop()
    m_adj = model.trace_adjoint().as_superop()
    assert np.abs(m_adj - m.conj().T).max() <= 1e-12


def test_superop_round_trip_agrees_with_kraus():
    state = random_state(5, M23)
    model = random_certified_map(12, M23, state)
    resurfaced = PositiveMapModel.from_superop(M23, model.as_superop())
    x = _herm(21, (2, 3))
    y1 = model.apply(x)
    y2 = resurfaced.apply(x)
    assert op_norm(y1 - y2) <= 1e-12
    assert resurfaced.pedigree is Pedigree.UNVERIFIED


def test_hermiticity_preservation_on_spanning_set():
    state = random_state(7, M23)
    model = random_certified_map(13, M23, state)
    for c, d in enumerate(M23.signature):
        for i in range(d):
            for j in range(d):
                blocks = [np.zeros((dd, dd), dtype=complex) for dd in M23.signature]
                blocks[c][i, j] = 1.0
                unit = BlockMatrix(blocks)
                lhs = model.apply(unit.adjoint())
                rhs = model.apply(unit).adjoint()
                assert op_norm(lhs - rhs) <= 1e-10


def test_from_superop_rejects_hermiticity_breaker():
    # maps e00 to e01: the image of a hermitian element is not hermitian
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0] = 1.0
    with pytest.raises(DomainError):
        PositiveMapModel.from_superop(M2, m)


def test_from_superop_refuses_the_constructed_pedigree():
    # x -> x + (x11 - x22)/2 sigma_z is hermiticity-preserving and not
    # positive: it sends diag(1, 0) to diag(3/2, -1/2)
    m = np.eye(4, dtype=complex)
    m[0, 0] = m[3, 3] = 1.5
    m[0, 3] = m[3, 0] = -0.5
    with pytest.raises(InputError):
        PositiveMapModel.from_superop(M2, m, Pedigree.CONSTRUCTED_POSITIVE)
    with pytest.raises(InputError):
        PositiveMapModel(M2, "superop", Pedigree.CONSTRUCTED_POSITIVE, matrix=m)
    for pedigree in (Pedigree.UNVERIFIED, Pedigree.SAMPLED_POSITIVE):
        assert PositiveMapModel.from_superop(M2, m, pedigree).pedigree is pedigree


def test_from_kraus_validates_shapes_and_weights():
    with pytest.raises(DimensionMismatch):
        PositiveMapModel.from_kraus(M2, [np.eye(3)])
    with pytest.raises(InputError):
        PositiveMapModel.from_kraus(M2, [np.eye(2)], weights=[-1.0])
    with pytest.raises(InputError):
        PositiveMapModel.from_kraus(M2, [])


def test_map_models_copy_what_callers_pass_and_share_their_own():
    # from_kraus keeps copies: writing the caller's arrays afterwards changes
    # nothing.  The trace adjoint and the L1 action keep the operators they
    # built, C-ordered and read-only, and share their source's weights
    state = random_state(41, M23)
    source = random_certified_map(42, M23, state)
    ops = [np.array(v) for v in source.kraus_ops]
    weights = np.array(source.kraus_weights)
    copied = PositiveMapModel.from_kraus(M23, ops, weights)
    for v in ops:
        v[...] = 7.0
    weights[...] = 9.0
    assert [v.tobytes() for v in copied.kraus_ops] == [v.tobytes() for v in source.kraus_ops]
    assert copied.kraus_weights.tobytes() == source.kraus_weights.tobytes()
    ext = extend_l1(source, state)
    for model in (source.trace_adjoint(), ext.l1_action, ext.adjoint_action):
        assert model.kraus_weights is source.kraus_weights
        assert model.pedigree is source.pedigree
        for v in model.kraus_ops:
            assert v.flags.c_contiguous and not v.flags.writeable
    adjoint = source.trace_adjoint()
    assert [v.tobytes() for v in adjoint.kraus_ops] == [
        np.array(v.conj().T, order="C").tobytes() for v in source.kraus_ops
    ]


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_example_maps_keep_their_own_arrays_with_the_bits_from_kraus_gives(
    seed, monkeypatch
):
    # the worked examples and the random map build fresh arrays and pass
    # them on without a copy; from_kraus on the same operators and weights
    # (as a list of floats) gives every bit, dtype and layout they keep
    copies = []
    real = PositiveMapModel.from_kraus.__func__

    def counting(cls, *args, **kwargs):
        copies.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(PositiveMapModel, "from_kraus", classmethod(counting))
    state = random_state(seed, M23)
    models = [
        random_certified_map(seed + 1, M23, state),
        # the pinching branch and the generalized branch
        example_cond_expectation(M23, state, [[[0, 1]], [[0, 1, 2]]]),
        example_cond_expectation(M23, state, [[[0], [1]], [[0, 2], [1]]]),
        example_tensor_markov(
            np.array([[0.0, 1.0], [1.0, 0.0]]) if seed % 2 else np.full((2, 2), 0.5),
            np.array([0.5, 0.5]),
            M2,
            random_state(seed + 2, M2),
        )[2],
    ]
    assert copies == []
    for model in models:
        ref = real(
            PositiveMapModel, model.algebra, list(model.kraus_ops), model.kraus_weights.tolist()
        )
        assert model.pedigree is Pedigree.CONSTRUCTED_POSITIVE
        assert model.kraus_weights.dtype == np.float64
        assert model.kraus_weights.tobytes() == ref.kraus_weights.tobytes()
        assert not model.kraus_weights.flags.writeable
        for v, r in zip(model.kraus_ops, ref.kraus_ops, strict=True):
            assert v.dtype == r.dtype and v.flags.c_contiguous and not v.flags.writeable
            assert v.tobytes() == r.tobytes()


# -- condition certification -------------------------------------------------


def test_conditions_identity_all_pass():
    state = _state_m2()
    report = check_conditions(PositiveMapModel.identity(M2), state)
    assert report.all_ok
    assert report.contraction_defect <= 1e-14
    assert report.trace_decrease_defect <= 1e-14
    assert report.positivity_mode == "constructed"


def test_conditions_rank_one_compression():
    # T(x) = V*xV with V = diag(1,0): T(1) = diag(1,0) <= 1 and
    # V rho V* = diag(1/2,0) <= rho, so all three conditions hold
    state = _state_m2(0.5)
    model = PositiveMapModel.from_kraus(M2, [np.diag([1.0, 0.0]).astype(complex)])
    report = check_conditions(model, state)
    assert report.all_ok


def test_conditions_doubling_fails_contraction():
    state = _state_m2()
    doubled = PositiveMapModel.from_kraus(M2, [np.eye(2, dtype=complex)], weights=[2.0])
    report = check_conditions(doubled, state)
    assert not report.contraction_ok
    assert report.contraction_defect == pytest.approx(1.0, abs=1e-12)


def test_conditions_sampled_positivity_verdict():
    state = random_state(19, M2)
    model = random_certified_map(23, M2, state)
    resurfaced = PositiveMapModel.from_superop(M2, model.as_superop())
    report = check_conditions(resurfaced, state, samples=30)
    assert report.positivity_mode == "sampled"
    assert report.positivity_ok
    assert report.positivity_worst >= -1e-9


def test_conditions_sampling_catches_sign_flip():
    # x -> -x is hermiticity-preserving but sends positives to negatives
    flip = PositiveMapModel.from_superop(M2, -np.eye(4, dtype=complex))
    state = _state_m2()
    report = check_conditions(flip, state)
    assert not report.positivity_ok
    assert report.positivity_worst < -0.5


# -- L1 extension ------------------------------------------------------------


def test_extend_identity_is_identity():
    state = random_state(31, M23)
    ext = extend_l1(PositiveMapModel.identity(M23), state)
    a = random_positive_l1(32, M23)
    assert op_norm(ext.l1_apply(a).rep - a.rep) <= 1e-12
    x = _herm(33, (2, 3))
    assert op_norm(ext.adjoint_apply(x) - x) <= 1e-12


def test_extend_rejects_failing_map():
    state = _state_m2()
    doubled = PositiveMapModel.from_kraus(M2, [np.eye(2, dtype=complex)], weights=[2.0])
    with pytest.raises(ConditionsNotMet) as info:
        extend_l1(doubled, state)
    assert not info.value.report.contraction_ok
    assert str(info.value).startswith("contraction defect 1.000e+00; trace increase ")


def test_unital_map_fixes_density():
    # T unital means T1(rho) = rho^{1/2} T(1) rho^{1/2} = rho
    _, state, model = example_tensor_markov(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([0.5, 0.5]),
        M2,
        random_state(41, M2),
    )
    ext = extend_l1(model, state)
    a = spatial_derivative(state)
    assert op_norm(ext.l1_apply(a).rep - state.rho) <= 1e-12


def test_l1_action_positive_and_trace_decreasing():
    for seed in range(10):
        algebra = M23 if seed % 2 else M2
        state = random_state(100 + seed, algebra)
        model = random_certified_map(200 + seed, algebra, state)
        ext = extend_l1(model, state)
        a = random_positive_l1(300 + seed, algebra, trace=2.0)
        image = ext.l1_apply(a)
        assert min_eigenvalue(image.rep) >= -1e-9
        assert image.integral() <= a.integral() + 1e-10


def test_l1_action_trace_norm_contraction():
    state = random_state(51, M23)
    ext = extend_l1(random_certified_map(52, M23, state), state)
    for seed in range(8):
        a = _herm(500 + seed, (2, 3))
        assert schatten_norm(ext.l1_action.apply(a), 1) <= schatten_norm(a, 1) + 1e-9


def test_duality_pairing():
    state = random_state(61, M23)
    ext = extend_l1(random_certified_map(62, M23, state), state)
    for seed in range(20):
        a = _herm(700 + seed, (2, 3))
        x = _herm(800 + seed, (2, 3))
        lhs = _pair_trace(ext.l1_action.apply(a), x)
        rhs = _pair_trace(a, ext.adjoint_apply(x))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_adjoint_subunital():
    for seed in range(6):
        state = random_state(900 + seed, M23)
        ext = extend_l1(random_certified_map(910 + seed, M23, state), state)
        one = M23.identity()
        assert max_eigenvalue(adjoint_map(ext).apply(one) - one) <= 1e-9


def test_adjoint_unital_when_state_preserved():
    # stationary mu makes phi T-invariant, forcing Tadj(1) = 1
    _, state, model = example_tensor_markov(
        np.array([[0.2, 0.8], [0.8, 0.2]]),
        np.array([0.5, 0.5]),
        M2,
        random_state(71, M2),
    )
    ext = extend_l1(model, state)
    one = state.algebra.identity()
    assert op_norm(ext.adjoint_apply(one) - one) <= 1e-9


def test_lp_action_endpoints_and_contraction():
    state = random_state(81, M23)
    model = random_certified_map(82, M23, state)
    ext = extend_l1(model, state)
    x = _herm(83, (2, 3))
    assert op_norm(ext.lp_apply(x, 1) - ext.l1_action.apply(x)) <= 1e-10
    assert op_norm(ext.lp_apply(x, np.inf) - model.apply(x)) <= 1e-12
    for p in (1.0, 2.0, np.inf):
        assert kosaki_norm(ext.lp_apply(x, p), p, state) <= kosaki_norm(x, p, state) + 1e-8


# -- Cesaro averages ---------------------------------------------------------


def test_cesaro_order_zero_and_identity_map():
    state = random_state(91, M23)
    a = random_positive_l1(92, M23)
    ext = extend_l1(PositiveMapModel.identity(M23), state)
    assert op_norm(cesaro(ext, a, 0).rep - a.rep) == 0.0
    assert op_norm(cesaro(ext, a, 5).rep - a.rep) <= 1e-12


def test_cesaro_telescoping_identity():
    # (r+2) S_{r+1}(a) - (r+1) T1(S_r(a)) = a; the averages are built from
    # accumulated powers, so this exercises an independent recursion
    state = random_state(95, M23)
    ext = extend_l1(random_certified_map(96, M23, state), state)
    a = random_positive_l1(97, M23, trace=3.0)
    seq = cesaro_sequence(ext, a, 9)
    for r in range(9):
        lhs = (r + 2.0) * seq[r + 1].rep - (r + 1.0) * ext.l1_action.apply(seq[r].rep)
        assert op_norm(lhs - a.rep) <= 1e-9


def test_cesaro_preserves_positivity():
    state = random_state(98, M2)
    ext = extend_l1(random_certified_map(99, M2, state), state)
    a = random_positive_l1(101, M2)
    for s in cesaro_sequence(ext, a, 12):
        assert min_eigenvalue(s.rep) >= -1e-9


def test_cesaro_rejects_negative_horizon():
    state = random_state(103, M2)
    ext = extend_l1(PositiveMapModel.identity(M2), state)
    with pytest.raises(InputError):
        cesaro(ext, random_positive_l1(104, M2), -1)


# -- the array action, pinned to the operator code it replaced --------------

PIN_SIGNATURES = [(2, 1), (3,), (8, 16), (1, 1, 1, 1, 1)]


def _pin_maps(signature):
    # a certified Kraus map, and the same map as a superoperator
    algebra = Algebra(signature)
    state = random_state(len(signature), algebra)
    kraus = random_certified_map(sum(signature), algebra, state)
    matrix = reference_superop(algebra, lambda x: reference_apply(kraus, x))
    superop = PositiveMapModel.from_superop(algebra, matrix, Pedigree.SAMPLED_POSITIVE)
    return algebra, state, (kraus, superop)


def _same_bits(got, want) -> bool:
    # bit for bit: bytes tell -0.0 from 0.0
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_operators(got, want) -> bool:
    return all(
        type(g) is type(w) and all(_same_bits(a, b) for a, b in zip(g.blocks, w.blocks))
        for g, w in zip(got, want)
    ) and len(got) == len(want)


@pytest.mark.parametrize("signature", PIN_SIGNATURES)
def test_array_action_keeps_the_operator_bits(signature):
    # one matrix per block, and (k, d, d) stacks of k inputs, matrix by matrix
    _, _, models = _pin_maps(signature)
    rng = np.random.default_rng(sum(signature) + 7)
    xs = [random_block_matrix(rng, signature) for _ in range(5)]
    for model in models:
        wants = [reference_apply(model, x).blocks for x in xs]
        for x, want in zip(xs, wants):
            assert all(_same_bits(g, w) for g, w in zip(model._act(x.blocks), want))
        for k in (1, 5):
            stacks = [np.stack([x.blocks[c] for x in xs[:k]]) for c in range(len(signature))]
            got = model._act(stacks)
            for j, want in enumerate(wants[:k]):
                assert all(_same_bits(g[j], w) for g, w in zip(got, want))


@pytest.mark.parametrize("signature", PIN_SIGNATURES)
def test_cesaro_reps_keep_the_operator_bits(signature):
    # a hermitian input is symmetrized where the operators symmetrized it; a
    # BlockMatrix input stays a BlockMatrix and is never symmetrized
    _, _, models = _pin_maps(signature)
    rng = np.random.default_rng(sum(signature) + 11)
    for x in (random_psd(rng, signature), random_block_matrix(rng, signature)):
        for model in models:
            want = reference_averages(lambda y: reference_apply(model, y), x, 6)
            got = cesaro_reps(model, x, 6)
            assert _same_operators(got, want)
    assert type(got[-1]) is BlockMatrix and got[-1].hermiticity_defect() > 0.0


@pytest.mark.parametrize("signature", PIN_SIGNATURES)
def test_superoperator_matrices_keep_the_operator_bits(signature):
    algebra, state, (kraus, superop) = _pin_maps(signature)
    want = reference_superop(algebra, lambda x: reference_apply(kraus, x))
    assert _same_bits(kraus.as_superop(), want)
    half, neg_half = state.power(0.5), state.power(-0.5)
    want = reference_superop(
        algebra, lambda x: half @ reference_apply(superop, neg_half @ x @ neg_half) @ half
    )
    assert _same_bits(extend_l1(superop, state).l1_action.matrix, want)


@pytest.mark.parametrize("signature", PIN_SIGNATURES)
def test_weak_type_lp_averages_keep_the_operator_bits(monkeypatch, signature):
    # the averages the algebra-input branch compresses, read where it compresses them
    algebra, state, models = _pin_maps(signature)
    checked = []
    real = maximal.compress

    def recording(e, y):
        checked.append(y)
        return real(e, y)

    monkeypatch.setattr(maximal, "compress", recording)
    rng = np.random.default_rng(29)
    e = algebra.identity()
    for model in models:
        ext = extend_l1(model, state)
        for x in (random_psd(rng, signature), random_block_matrix(rng, signature)):
            for p in (2.0, math.inf):
                checked.clear()
                assert weak_type_predicate(e, x, 1e6, 2.0, p, state, ext, 5)
                averages = reference_averages(lambda y: reference_lp_apply(ext, y, p), x, 5)
                want = [HermitianOperator._exact(s.blocks) for s in averages]
                assert _same_operators(checked, want)


def test_superop_matrix_holds_one_basis_image_at_a_time():
    # the whole basis at once would take c n^2 entries, about 54 MB here
    model = PositiveMapModel.identity(Algebra((1,) * 150))
    tracemalloc.start()
    try:
        matrix = model.as_superop()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(matrix, np.eye(150))
    assert peak < 8 * 2**20


@given(seed=st.integers(0, 10_000))
@HSETTINGS
def test_extension_invariants_hold_across_seeds(seed):
    algebra = M2 if seed % 2 else M23
    state = random_state(seed + 1, algebra)
    model = random_certified_map(seed, algebra, state)
    ext = extend_l1(model, state)
    one = algebra.identity()
    assert max_eigenvalue(ext.adjoint_apply(one) - one) <= 1e-9
    a = random_positive_l1(seed + 2, algebra)
    x = _herm(seed + 3, algebra.signature)
    lhs = _pair_trace(ext.l1_action.apply(a.rep), x)
    rhs = _pair_trace(a.rep, ext.adjoint_apply(x))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
    seq = cesaro_sequence(ext, a, 3)
    lhs2 = 5.0 * cesaro(ext, a, 4).rep - 4.0 * ext.l1_action.apply(seq[3].rep)
    assert op_norm(lhs2 - a.rep) <= 1e-9


# -- Markov examples ---------------------------------------------------------


def test_markov_identity_kernel_is_identity_map():
    inner_state = random_state(111, M2)
    algebra, _, model = example_tensor_markov(
        np.eye(3), np.array([0.2, 0.3, 0.5]), M2, inner_state
    )
    x = _herm(112, algebra.signature)
    assert op_norm(model.apply(x) - x) <= 1e-12


def test_markov_swap_action_and_conditions():
    inner_state = random_state(113, M2)
    algebra, state, model = example_tensor_markov(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]), M2, inner_state
    )
    report = check_conditions(model, state)
    assert report.all_ok
    x = _herm(114, algebra.signature)
    y = model.apply(x)
    # the swap kernel exchanges the two copies
    assert np.abs(y.blocks[0] - x.blocks[1]).max() <= 1e-14
    assert np.abs(y.blocks[1] - x.blocks[0]).max() <= 1e-14


def test_markov_constant_kernel_idempotent():
    mu = np.array([0.3, 0.7])
    inner_state = random_state(115, M2)
    algebra, _, model = example_tensor_markov(
        np.array([mu, mu]), mu, M2, inner_state
    )
    x = _herm(116, algebra.signature)
    once = model.apply(x)
    twice = model.apply(once)
    assert op_norm(twice - once) <= 1e-12


def test_markov_validation_errors():
    inner_state = random_state(117, M2)
    with pytest.raises(NotStochastic):
        example_tensor_markov(np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5]), M2, inner_state)
    with pytest.raises(NotStochastic):
        example_tensor_markov(np.array([[1.2, -0.2], [0.5, 0.5]]), np.array([0.5, 0.5]), M2, inner_state)
    with pytest.raises(NotStochastic):
        example_tensor_markov(np.ones((2, 3)) / 3.0, np.array([0.5, 0.5]), M2, inner_state)
    with pytest.raises(NotSubInvariant):
        example_tensor_markov(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.9, 0.1]), M2, inner_state
        )
    with pytest.raises(DimensionMismatch):
        example_tensor_markov(np.eye(2), np.array([0.2, 0.3, 0.5]), M2, inner_state)


def test_markov_stationary_asymmetric_kernel():
    # for stochastic P and a probability vector, entrywise mu P <= mu forces
    # equality (both sides sum to 1), so the admissible weights are exactly
    # the stationary ones; check a non-uniform stationary pair passes
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    mu = np.array([2.0, 1.0]) / 3.0
    assert np.abs(mu @ P - mu).max() <= 1e-15
    _, state, model = example_tensor_markov(P, mu, M2, random_state(118, M2))
    assert check_conditions(model, state).all_ok


# -- conditional expectations -------------------------------------------------


def _standard_form_expectation(rho: np.ndarray, groups, x: np.ndarray) -> np.ndarray:
    """Generalized expectation computed in the Hilbert-space standard form.

    Vectors are full matrices with inner product Tr(A* B).  The subalgebra
    acts on the closure of N rho^{1/2}; its projection is built by QR, the
    conjugations J and J_N act by explicit formulas, and the result is read
    off the cyclic vector.  Shares no code with the pinching construction.
    """

    n = rho.shape[0]
    w, u = np.linalg.eigh(rho)
    rho_half = (u * np.sqrt(w)) @ u.conj().T
    rho_inv_half = (u * (w**-0.5)) @ u.conj().T
    rho_n = np.zeros_like(rho)
    for g in groups:
        rho_n[np.ix_(g, g)] = rho[np.ix_(g, g)]
    wn, un = np.linalg.eigh(rho_n)
    rho_n_half = (un * np.sqrt(wn)) @ un.conj().T
    rho_n_inv_half = (un * (wn**-0.5)) @ un.conj().T

    cols = []
    for g in groups:
        for i in g:
            for j in g:
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                cols.append((unit @ rho_half).reshape(-1))
    q, _ = np.linalg.qr(np.column_stack(cols))
    p_n = q @ q.conj().T

    eta = rho_half @ x.conj().T  # J pi(x) J applied to the cyclic vector
    m = (p_n @ eta.reshape(-1)).reshape(n, n)
    n_mat = m @ rho_inv_half
    j_n_image = rho_n_half @ n_mat.conj().T @ rho_n_inv_half @ rho_half
    return j_n_image @ rho_inv_half


def test_cond_expectation_full_algebra_is_identity():
    state = random_state(121, M23)
    model = example_cond_expectation(M23, state, [[[0, 1]], [[0, 1, 2]]])
    x = _herm(122, (2, 3))
    assert op_norm(model.apply(x) - x) <= 1e-12


def test_cond_expectation_tracial_diagonal_pinching():
    state = _state_m2(0.5)
    model = example_cond_expectation(M2, state, [[[0], [1]]])
    x = _herm(123, (2,))
    y = model.apply(x)
    assert np.abs(y.blocks[0] - np.diag(np.diag(x.blocks[0]))).max() <= 1e-14
    yy = model.apply(y)
    assert op_norm(yy - y) <= 1e-14
    assert abs(state.expectation(y) - state.expectation(x)) <= 1e-12


def test_cond_expectation_modular_invariant_diagonal():
    # diagonal density commutes with the diagonal subalgebra: pinching branch
    state = _state_m2(0.8)
    model = example_cond_expectation(M2, state, [[[0], [1]]])
    report = check_conditions(model, state)
    assert report.all_ok
    x = _herm(124, (2,))
    y = model.apply(x)
    assert op_norm(model.apply(y) - y) <= 1e-12
    assert abs(state.expectation(y) - state.expectation(x)) <= 1e-12


def test_cond_expectation_generalized_branch():
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    state = make_state(M2, HermitianOperator([rho]))
    model = example_cond_expectation(M2, state, [[[0], [1]]])
    one = M2.identity()
    assert op_norm(model.apply(one) - one) <= 1e-12
    x = _herm(125, (2,))
    y = model.apply(x)
    # image lies in the subalgebra and the state expectation is preserved
    assert abs(y.blocks[0][0, 1]) <= 1e-12
    assert abs(state.expectation(y) - state.expectation(x)) <= 1e-12
    assert check_conditions(model, state).all_ok
    # differs from the plain pinching on off-diagonal input
    flip = HermitianOperator([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])
    assert op_norm(model.apply(flip)) > 1e-3


def test_cond_expectation_matches_standard_form_oracle():
    m3 = Algebra((3,))
    rng = np.random.default_rng(126)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    raw = g @ g.conj().T / 3.0 + 0.15 * np.eye(3)
    rho = raw / np.trace(raw).real
    state = make_state(m3, HermitianOperator([rho]))
    groups = [[0, 1], [2]]
    model = example_cond_expectation(m3, state, [groups])
    for seed in range(5):
        x = _herm(130 + seed, (3,))
        expected = _standard_form_expectation(rho, groups, x.blocks[0])
        got = model.apply(x).blocks[0]
        assert np.abs(got - expected).max() <= 1e-9


def test_cond_expectation_rejects_bad_partitions():
    state = _state_m2()
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[[0]]])  # index 1 missing
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[[0, 1], [1]]])  # overlap
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[[0, 2]]])  # out of range
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[[0], []]])  # empty group
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[["a"], [1]]])  # string index
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[0, 1]])  # groups are not lists
    with pytest.raises(NotSubalgebra):
        example_cond_expectation(M2, state, [[[0.7], [1]]])  # float, not truncated


# -- seeded generation --------------------------------------------------------


def test_random_certified_map_deterministic():
    state = _state_m2()
    a = random_certified_map(77, M2, state)
    b = random_certified_map(77, M2, state)
    assert np.array_equal(a.kraus_weights, b.kraus_weights)
    assert len(a.kraus_ops) == len(b.kraus_ops)
    for va, vb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(va, vb)


def test_random_certified_map_seed_sweep():
    state = _state_m2()
    for seed in range(100):
        model = random_certified_map(seed, M2, state)
        assert check_conditions(model, state).all_ok
