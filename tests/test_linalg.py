"""Kernel tests: eigendecomposition, functional calculus, cuts, norms.

Derived expectations are checked against independent oracles computed in
this file (eigenvalue sums, power iteration, direct Hölder evaluation),
never against the implementation under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergocert.errors import (
    AmbiguousSpectralCut,
    DomainError,
    InputError,
    InvalidExponent,
    NonConvergence,
)
from ergocert.linalg import (
    BlockMatrix,
    HermitianOperator,
    apply_spectral,
    eigh,
    is_psd,
    negative_part,
    op_norm,
    positive_part,
    schatten_norm,
    spectral_projection,
)
from helpers import (
    perturbed_eigh,
    random_block_matrix,
    random_hermitian,
    random_psd,
    random_unitary,
)

HSETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def power_iteration_norm(A: BlockMatrix, iters: int = 2000) -> float:
    """Largest singular value via power iteration on A*A, per block."""

    best = 0.0
    for b in A.blocks:
        g = b.conj().T @ b
        rng = np.random.default_rng(1234)
        v = rng.standard_normal(b.shape[0]) + 1j * rng.standard_normal(b.shape[0])
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = g @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            lam = nw
        best = max(best, math.sqrt(lam))
    return best


# -- construction --------------------------------------------------------


def test_hermitian_rejects_large_defect():
    with pytest.raises(InputError):
        HermitianOperator([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_hermitian_symmetrizes_small_defect():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 2.0]])
    h = HermitianOperator([a])
    assert h.hermiticity_defect() == 0.0


def test_block_matrix_rejects_nonfinite():
    with pytest.raises(InputError):
        BlockMatrix([np.array([[np.nan]])])


def test_dimension_mismatch():
    from ergocert.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        HermitianOperator.identity([2]) + HermitianOperator.identity([3])


# -- eigh -----------------------------------------------------------------


def test_eigh_identity():
    spec = eigh(HermitianOperator.identity([2]))
    np.testing.assert_allclose(spec.eigenvalues[0], [1.0, 1.0])


def test_eigh_diagonal_sorted():
    spec = eigh(HermitianOperator.from_diagonal([2], [3.0, -4.0]))
    np.testing.assert_allclose(spec.eigenvalues[0], [-4.0, 3.0])


def test_eigh_reconstructs_seeded_5x5():
    a = random_hermitian(np.random.default_rng(5), [5])
    spec = eigh(a)
    recon = (spec.vectors[0] * spec.eigenvalues[0]) @ spec.vectors[0].conj().T
    assert np.linalg.norm(recon - a.blocks[0], 2) <= 1e-10 * max(1.0, op_norm(a))


@HSETTINGS
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_eigh_ascending_and_unitary(seed, d):
    a = random_hermitian(np.random.default_rng(seed), [d])
    spec = eigh(a)
    w, u = spec.eigenvalues[0], spec.vectors[0]
    assert np.all(np.diff(w) >= 0.0)
    assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) <= 1e-10


def test_eigh_reconstruction_guard_fires(monkeypatch):
    a = random_hermitian(np.random.default_rng(3), [3, 2])
    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(1e-6))
    with pytest.raises(NonConvergence):
        eigh(a)
    assert a._spec is None


def test_eigh_guard_judges_each_block_at_its_own_scale(monkeypatch):
    # the unit block misses by ~1e-7, far above 1e-10 at its own scale but
    # inside the 1e-10 * 1e6 a check at the operator's scale would allow
    a = HermitianOperator([np.diag([1e6, 2.0]), np.diag([1.0, 0.5])])
    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(1e-7, max_entry=10.0))
    with pytest.raises(NonConvergence):
        eigh(a)


def test_eigh_reconstruction_check_survives_huge_entries():
    # the squared residual of a 1e200-scaled matrix overflows; the check
    # must still measure the decomposition, which is accurate to roundoff
    a = HermitianOperator([1e200 * np.array([[2.0, 1.0], [1.0, 3.0]])])
    w = eigh(a).eigenvalues[0]
    expected = 1e200 * np.array([2.5 - math.sqrt(1.25), 2.5 + math.sqrt(1.25)])
    np.testing.assert_allclose(w, expected, rtol=1e-14)


def test_eigh_guard_fires_at_huge_scale(monkeypatch):
    # off by ~1e-9 relative, ten times the 1e-10 the check allows
    a = HermitianOperator([1e200 * np.array([[2.0, 1.0], [1.0, 3.0]])])
    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(1e-9))
    with pytest.raises(NonConvergence):
        eigh(a)


# -- functional calculus --------------------------------------------------


def test_apply_spectral_identity_function():
    a = random_hermitian(np.random.default_rng(0), [3, 2])
    assert apply_spectral(a, lambda w: w).allclose(a, atol=1e-12)


def test_apply_spectral_diagonal_sqrt():
    a = HermitianOperator.from_diagonal([2], [4.0, 9.0])
    r = apply_spectral(a, np.sqrt)
    np.testing.assert_allclose(np.diag(r.blocks[0]).real, [2.0, 3.0], atol=1e-12)


def test_apply_spectral_sqrt_squares_back():
    a = random_psd(np.random.default_rng(7), [4, 3])
    r = apply_spectral(a, np.sqrt)
    assert op_norm((r @ r) - a) <= 1e-9 * max(1.0, op_norm(a))


def test_apply_spectral_domain_error():
    a = HermitianOperator.from_diagonal([2], [1.0, 0.0])
    with pytest.raises(DomainError):
        apply_spectral(a, lambda w: 1.0 / w)


def test_positive_part_diagonal():
    a = HermitianOperator.from_diagonal([2], [2.0, -1.0])
    np.testing.assert_allclose(np.diag(positive_part(a).blocks[0]).real, [2.0, 0.0])


def test_positive_part_fixed_on_psd():
    a = random_psd(np.random.default_rng(11), [3])
    assert positive_part(a).allclose(a, atol=1e-12)


def test_positive_part_trace_oracle():
    a = random_hermitian(np.random.default_rng(13), [4, 2])
    expected = sum(max(v, 0.0) for v in eigh(a).all_eigenvalues())
    assert abs(positive_part(a).real_trace() - expected) <= 1e-10


@HSETTINGS
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_jordan_decomposition(seed, d):
    a = random_hermitian(np.random.default_rng(seed), [d])
    plus, minus = positive_part(a), negative_part(a)
    scale = max(1.0, op_norm(a))
    assert op_norm((plus - minus) - a) <= 1e-10 * scale
    assert op_norm(plus @ minus) <= 1e-9 * scale
    assert is_psd(plus) and is_psd(minus)


# -- spectral projections -------------------------------------------------


def test_support_projection():
    a = HermitianOperator.from_diagonal([2], [0.3, 0.0])
    p = spectral_projection(a, (1e-8, math.inf), eps_kernel=1e-8)
    np.testing.assert_allclose(p.blocks[0].real, np.diag([1.0, 0.0]), atol=1e-12)


def test_projection_full_spectrum_inside():
    one = HermitianOperator.identity([2, 3])
    p = spectral_projection(one, (0.5, 1.0))
    assert p.allclose(one, atol=1e-12)


def test_projection_rank_oracle():
    rng = np.random.default_rng(17)
    rank = 2
    a = random_psd(rng, [5], rank=rank)
    p = spectral_projection(a, (1e-8, math.inf), eps_kernel=1e-8)
    assert abs(p.real_trace() - rank) <= 1e-9


def test_projection_strict_mode_raises():
    a = HermitianOperator.from_diagonal([2], [0.5, 1.0])
    with pytest.raises(AmbiguousSpectralCut):
        spectral_projection(a, (0.5, 1.0), eps_kernel=1e-8, strict=True)


def test_projection_ambiguous_goes_outside():
    # eigenvalue within eps of the open endpoint is dropped from the range
    a = HermitianOperator.from_diagonal([3], [0.5 + 5e-9, 0.75, 1.0])
    p = spectral_projection(a, (0.5, 1.0), eps_kernel=1e-8)
    assert abs(p.real_trace() - 2.0) <= 1e-9


@HSETTINGS
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_projection_idempotent_selfadjoint(seed, d):
    a = random_hermitian(np.random.default_rng(seed), [d])
    p = spectral_projection(a, (0.0, math.inf), eps_kernel=1e-8)
    assert op_norm((p @ p) - p) <= 1e-9
    assert p.hermiticity_defect() <= 1e-9


# -- psd test -------------------------------------------------------------


def test_is_psd_identity():
    assert is_psd(HermitianOperator.identity([3]))


def test_is_psd_small_negative():
    assert not is_psd(HermitianOperator.from_diagonal([2], [1.0, -1e-3]), tol=1e-9)


def test_is_psd_gram():
    rng = np.random.default_rng(23)
    b = random_block_matrix(rng, [3, 2])
    gram = HermitianOperator([x.conj().T @ x for x in b.blocks])
    assert is_psd(gram)


# -- schatten norms -------------------------------------------------------


def test_schatten_one_diagonal():
    a = HermitianOperator.from_diagonal([2], [3.0, -4.0])
    assert abs(schatten_norm(a, 1) - 7.0) <= 1e-12


def test_schatten_inf_matches_power_iteration():
    a = random_block_matrix(np.random.default_rng(29), [4, 3])
    assert abs(schatten_norm(a, math.inf) - power_iteration_norm(a)) <= 1e-8


def test_schatten_invalid_exponent():
    a = HermitianOperator.identity([2])
    with pytest.raises(InvalidExponent):
        schatten_norm(a, 0.5)


def test_holder_pairs():
    rng = np.random.default_rng(31)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        q = math.inf if p == 1.0 else (1.0 if math.isinf(p) else p / (p - 1.0))
        a = random_block_matrix(rng, [3, 2])
        b = random_block_matrix(rng, [3, 2])
        lhs = abs((a @ b).trace())
        assert lhs <= schatten_norm(a, p) * schatten_norm(b, q) + 1e-9


@HSETTINGS
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
def test_schatten_triangle_and_unitary_invariance(seed, d, p):
    rng = np.random.default_rng(seed)
    a = random_block_matrix(rng, [d])
    b = random_block_matrix(rng, [d])
    assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-9
    u = random_unitary(rng, [d])
    v = random_unitary(rng, [d])
    assert abs(schatten_norm(u @ a @ v, p) - schatten_norm(a, p)) <= 1e-9 * max(
        1.0, schatten_norm(a, p)
    )
