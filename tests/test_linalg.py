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
from ergocert import linalg
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
    random_complex,
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


def test_hermitian_symmetrizes_entries_near_the_float_limit():
    # halved before the sum: 1e308 + 1e308 would overflow
    h = HermitianOperator([np.array([[1e308, 1e307], [1e307, -1e308]])])
    assert np.array_equal(h.blocks[0], np.array([[1e308, 1e307], [1e307, -1e308]]))
    assert np.array_equal(HermitianOperator([np.array([[1e308]])]).blocks[0], [[1e308]])


def test_block_matrix_rejects_nonfinite():
    with pytest.raises(InputError):
        BlockMatrix([np.array([[np.nan]])])


def test_dimension_mismatch():
    from ergocert.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        HermitianOperator.identity([2]) + HermitianOperator.identity([3])


# -- the result rule -------------------------------------------------------


def _halved_sym(m):
    # the symmetrization every hermitian result stores, spelled out here
    h = 0.5 * m
    return h + h.conj().T


def _rule_cases():
    rng = np.random.default_rng(16)
    dims = (2, 3)
    h, k = random_hermitian(rng, dims), random_hermitian(rng, dims)
    b, c = random_block_matrix(rng, dims), random_block_matrix(rng, dims)
    ops = {"H": h, "B": b}
    second = {"H": k, "B": c}
    cases = []
    for left in "HB":
        for right in "HB":
            x, y = ops[left], second[right]
            both = HermitianOperator if left == right == "H" else BlockMatrix
            cases += [
                (f"{left}+{right}", lambda x=x, y=y: x + y, both,
                 [p + q for p, q in zip(x.blocks, y.blocks)]),
                (f"{left}-{right}", lambda x=x, y=y: x - y, both,
                 [p - q for p, q in zip(x.blocks, y.blocks)]),
                (f"{left}@{right}", lambda x=x, y=y: x @ y, BlockMatrix,
                 [p @ q for p, q in zip(x.blocks, y.blocks)]),
            ]
    scalars = {
        "int": (3, True), "float": (-0.75, True), "float64": (np.float64(1.25), True),
        "complex-real": (complex(2.0, 0.0), True), "complex": (complex(0.5, 1.5), False),
    }
    for name, x in ops.items():
        cls = type(x)
        cases += [
            (f"-{name}", lambda x=x: -x, cls, [-p for p in x.blocks]),
            (f"{name}.adjoint", x.adjoint, cls, [p.conj().T for p in x.blocks]),
            (f"{name}.copy", x.copy, cls, list(x.blocks)),
            (f"{name}.zeros", lambda cls=cls: cls.zeros(dims), cls,
             [np.zeros((d, d), dtype=np.complex128) for d in dims]),
            (f"{name}.identity", lambda cls=cls: cls.identity(dims), cls,
             [np.eye(d, dtype=np.complex128) for d in dims]),
        ]
        for sname, (s, real) in scalars.items():
            cases.append((f"{sname}*{name}", lambda s=s, x=x: s * x,
                          cls if real else BlockMatrix, [s * p for p in x.blocks]))
    return cases


@pytest.mark.parametrize("case", _rule_cases(), ids=lambda case: case[0])
def test_each_result_follows_the_hermitian_result_rule(case):
    _, make, cls, raw = case
    out = make()
    assert type(out) is cls
    want = [_halved_sym(m) for m in raw] if cls is HermitianOperator else raw
    assert len(out.blocks) == len(want)
    for got, expected in zip(out.blocks, want):
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert got.tobytes() == np.asarray(expected, dtype=np.complex128).tobytes()


def test_copy_of_a_hermitian_operator_keeps_its_bits():
    h = random_hermitian(np.random.default_rng(7), (1, 4))
    out = h.copy()
    assert type(out) is HermitianOperator
    assert all(p.tobytes() == q.tobytes() for p, q in zip(out.blocks, h.blocks))
    assert all(not np.shares_memory(p, q) for p, q in zip(out.blocks, h.blocks))


_CONSTRUCTORS = {
    "BlockMatrix": BlockMatrix,
    "HermitianOperator": HermitianOperator,
    "_exact": HermitianOperator._exact,
}


@pytest.mark.parametrize("make", list(_CONSTRUCTORS.values()), ids=list(_CONSTRUCTORS))
@pytest.mark.parametrize(
    "bad",
    [
        np.array([[np.nan]]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.array([[1.0, complex(0.0, -np.inf)], [complex(0.0, np.inf), 1.0]]),
        np.ones((2, 3)),
        np.ones(3),
        np.ones((1, 2, 2)),
        np.zeros((0, 0)),
    ],
    ids=["nan", "inf", "imag-inf", "2x3", "vector", "stack", "empty"],
)
def test_every_constructor_rejects_nonfinite_or_nonsquare_blocks(make, bad):
    with pytest.raises(InputError):
        make([np.eye(2), bad])


def test_results_reject_nonfinite_blocks():
    h = HermitianOperator([np.array([[1e308]])])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError):
            h + h
        with pytest.raises(InputError):
            float("nan") * h
        with pytest.raises(InputError):
            HermitianOperator.from_diagonal([2], [1.0, float("inf")])


@pytest.mark.parametrize("make", list(_CONSTRUCTORS.values()), ids=list(_CONSTRUCTORS))
def test_an_operator_does_not_alias_its_callers_arrays(make):
    a = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    before = make([a]).blocks[0].copy()
    op = make([a])
    a[:] = 99.0
    assert np.array_equal(op.blocks[0], before)


def test_exact_symmetrizes_complex_blocks_without_copying_them(monkeypatch):
    import types

    blocks = [random_complex(np.random.default_rng(3), d) for d in (2, 3)]
    copied, symmetrized = [], []
    spy = types.SimpleNamespace(**vars(np))
    for name in ("array", "asarray", "ascontiguousarray", "copy"):
        def counted(a, *args, _f=getattr(np, name), **kw):
            out = _f(a, *args, **kw)
            if any(a is b for b in blocks) and out is not a:
                copied.append(name)
            return out

        setattr(spy, name, counted)
    real_sym = linalg._sym

    def sym(m):
        symmetrized.append(any(m is b for b in blocks))
        return real_sym(m)

    monkeypatch.setattr(linalg, "np", spy)
    monkeypatch.setattr(linalg, "_sym", sym)
    out = HermitianOperator._exact(blocks)
    assert copied == []
    assert symmetrized == [True, True]
    for got, b in zip(out.blocks, blocks):
        assert got.tobytes() == _halved_sym(b).tobytes()


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 24])
def test_kernel_gives_numpys_bits_per_matrix(d):
    # the kernel runs numpy's own gufuncs: the bits of np.linalg.eigh and
    # eigvalsh, for one matrix, for a stack, and for each matrix of a stack alone
    rng = np.random.default_rng(d)
    g = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
    stack = 0.5 * (g + g.conj().swapaxes(-1, -2))

    def same(x, y):
        return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()

    for a in (stack[0], stack):
        w, u = linalg._eigh(a)
        ref_w, ref_u = np.linalg.eigh(a)
        assert same(w, ref_w) and same(u, ref_u)
        assert same(linalg._eigvalsh(a), np.linalg.eigvalsh(a))
    w, u = linalg._eigh(stack)
    vals = linalg._eigvalsh(stack)
    for i, a in enumerate(stack):
        ref_w, ref_u = np.linalg.eigh(a)
        assert same(w[i], ref_w) and same(u[i], ref_u)
        assert same(vals[i], np.linalg.eigvalsh(a))


@pytest.mark.parametrize("kernel, gufunc", [("_eigh", "_EIGH_LO"), ("_eigvalsh", "_EIGVALSH_LO")])
def test_kernel_raises_on_nonfinite_eigenvalues(monkeypatch, kernel, gufunc):
    real = getattr(linalg, gufunc)

    def one_nan(a, signature):
        out = real(a, signature=signature)
        w = out[0] if isinstance(out, tuple) else out
        w[..., -1] = np.inf if a.ndim == 2 else np.nan
        return out

    monkeypatch.setattr(linalg, gufunc, one_nan)
    for a in (np.eye(2, dtype=np.complex128), np.stack([np.eye(3, dtype=np.complex128)] * 4)):
        with pytest.raises(NonConvergence):
            getattr(linalg, kernel)(a)


def test_eigh_reconstruction_guard_fires(monkeypatch):
    a = random_hermitian(np.random.default_rng(3), [3, 2])
    monkeypatch.setattr(linalg, "_eigh", perturbed_eigh(1e-6))
    with pytest.raises(NonConvergence):
        eigh(a)
    assert a._spec is None


def test_eigh_guard_judges_each_block_at_its_own_scale(monkeypatch):
    # the unit block misses by ~1e-7, far above 1e-10 at its own scale but
    # inside the 1e-10 * 1e6 a check at the operator's scale would allow
    a = HermitianOperator([np.diag([1e6, 2.0]), np.diag([1.0, 0.5])])
    monkeypatch.setattr(linalg, "_eigh", perturbed_eigh(1e-7, max_entry=10.0))
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
    monkeypatch.setattr(linalg, "_eigh", perturbed_eigh(1e-9))
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
