"""Dense linear algebra on direct sums of full matrix blocks.

Every operator in this package lives on a direct sum of square complex
blocks.  A ``BlockMatrix`` is the raw container; a ``HermitianOperator``
additionally guarantees self-adjointness (inputs are defect-checked, then
symmetrized).  Spectral routines work blockwise and feed a small functional
calculus: ``apply_spectral``, positive parts, and spectral projections with
an explicit tolerance policy at cut points.

Every eigendecomposition in the package goes through one kernel, ``_eigh``
and ``_eigvalsh``.  It calls the LAPACK gufuncs that ``numpy.linalg.eigh``
and ``eigvalsh`` run for complex input (the private
``numpy.linalg._umath_linalg.eigh_lo`` and ``eigvalsh_lo``, signatures
``"D->dD"`` and ``"D->d"``) without numpy's Python wrapper, so it gives the
same bits, for one matrix or per matrix of a ``(k, d, d)`` stack, and it
raises ``NonConvergence`` where an eigenvalue comes out non-finite.
``eigh_stack`` adds the reconstruction check on top; the solver's inner
loops read the kernel directly.

``_result`` makes every operation's result by one rule: a
``HermitianOperator``, each block symmetrized by ``_sym`` (the package's one
symmetrization), exactly when the operands make it one (a sum or difference
of two, the negation, adjoint or copy of one, a real multiple, its image
under a hermiticity-preserving map), else a ``BlockMatrix``, as for any
product.  Constructors copy a caller's blocks once; results take their fresh
blocks uncopied.  Every block is checked square and finite.

Tolerance conventions used throughout:

* hermiticity defect at construction: ``1e-12 * scale`` with
  ``scale = max(1, largest entry magnitude)``;
* eigendecomposition reconstruction: ``||U diag(w) U* - A||_F <=
  1e-10 * max(1, max|w|)`` for every matrix ``A`` decomposed, a single
  block or one matrix of a stack, with ``w`` that matrix's own
  eigenvalues.  The Frobenius norm is never below the spectral norm and a
  block's scale never above its operator's, so this is at least as strict
  as a spectral-norm check at the operator's scale;
* PSD test: min eigenvalue ``>= -tol * max(1, operator norm)`` with
  ``tol = 1e-9`` by default;
* spectral cut classification, written once in ``_cut`` and read by
  ``spectral_projection``, the support extraction and the limit cut:
  eigenvalues within ``eps_kernel`` above a finite open cut endpoint are
  pushed to the complement of the returned projection (the conservative
  side); strict mode raises on any eigenvalue within ``eps_kernel`` of it
  instead.  The closed endpoint of a half-open interval keeps its
  closure: eigenvalues within ``eps_kernel`` of it stay inside the
  projection.  ``eps_kernel`` defaults to ``1e-8 * max(1, |lambda_min|,
  |lambda_max|)``, as ``scaled_tol`` computes it.  The support cut of
  ``maximal.extract_projection`` cuts at the width itself, keeping the
  eigenvalues above ``2 eps_kernel``; eigenvalues up to ``eps_kernel`` are
  its kernel, so strict mode there raises only on ``(eps_kernel, 2
  eps_kernel]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AmbiguousSpectralCut,
    DimensionMismatch,
    DomainError,
    InputError,
    InvalidExponent,
    NonConvergence,
)

HERMITICITY_RTOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
PSD_TOL = 1e-9
KERNEL_EPS = 1e-8


# the gufuncs behind numpy.linalg.eigh and eigvalsh (lower triangle, as numpy's default)
_EIGH_LO = _umath_linalg.eigh_lo
_EIGVALSH_LO = _umath_linalg.eigvalsh_lo


def _eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ascending eigenvalues and unitary columns of a complex hermitian matrix or
    # (k, d, d) stack; unchecked beyond finiteness, so the bits are numpy's
    w, u = _EIGH_LO(stack, signature="D->dD")
    if not np.isfinite(w).all():
        raise NonConvergence("eigensolver failed: non-finite eigenvalues")
    return w, u


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    # the ascending eigenvalues of _eigh, without the vectors
    w = _EIGVALSH_LO(stack, signature="D->d")
    if not np.isfinite(w).all():
        raise NonConvergence("eigensolver failed: non-finite eigenvalues")
    return w


def _sym(m: np.ndarray) -> np.ndarray:
    # hermitian part of a matrix, or of each matrix of a stack, as a fresh C-ordered
    # array; halved before the sum so that finite entries near the float limit stay finite
    h = 0.5 * m
    return h + h.conj().swapaxes(-1, -2)


def _form(arr: np.ndarray, hermitian: bool) -> np.ndarray:
    # a result's block, or a stack of them: checked finite, then symmetrized by
    # _sym when hermitian, else made C-ordered
    if not np.isfinite(arr).all():
        raise InputError("block entries must be finite")
    return _sym(arr) if hermitian else np.ascontiguousarray(arr)


def _as_blocks(blocks: Iterable[np.ndarray], hermitian: bool) -> tuple[np.ndarray, ...]:
    # checked square, then formed by _form
    out = []
    for b in blocks:
        arr = np.asarray(b, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InputError(f"blocks must be square matrices, got shape {arr.shape}")
        out.append(_form(arr, hermitian))
    if not out:
        raise InputError("at least one block is required")
    return tuple(out)


def _result(cls: type["BlockMatrix"], blocks: Iterable[np.ndarray]) -> "BlockMatrix":
    # the result of class cls, picked by the module docstring's rule, from its
    # fresh blocks, taken uncopied
    out = cls.__new__(cls)
    out.blocks = _as_blocks(blocks, issubclass(cls, HermitianOperator))
    out._spec = None
    return out


class BlockMatrix:
    """Block-diagonal complex matrix, stored one square block at a time."""

    __slots__ = ("blocks", "_spec")

    def __init__(self, blocks: Iterable[np.ndarray]):
        copies = (np.array(b, dtype=np.complex128, order="C") for b in blocks)
        self.blocks = _as_blocks(copies, hermitian=False)
        self._spec = None

    # -- structure ---------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def _check_same_shape(self, other: "BlockMatrix") -> None:
        if self.dims != other.dims:
            raise DimensionMismatch(f"block dims {self.dims} vs {other.dims}")

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "BlockMatrix":
        return _result(cls, [np.zeros((d, d), dtype=np.complex128) for d in dims])

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "BlockMatrix":
        return _result(cls, [np.eye(d, dtype=np.complex128) for d in dims])

    # -- arithmetic: a HermitianOperator exactly when the operands make one

    def _sum_class(self, other: "BlockMatrix") -> type["BlockMatrix"]:
        self._check_same_shape(other)
        return type(self) if type(other) is type(self) else BlockMatrix

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        cls = self._sum_class(other)
        return _result(cls, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        cls = self._sum_class(other)
        return _result(cls, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "BlockMatrix":
        return _result(type(self), [-a for a in self.blocks])

    def __rmul__(self, c: complex) -> "BlockMatrix":
        blocks = [c * a for a in self.blocks]
        return _result(type(self) if np.imag(c) == 0.0 else BlockMatrix, blocks)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return _result(BlockMatrix, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "BlockMatrix":
        return _result(type(self), [a.conj().T for a in self.blocks])

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def real_trace(self) -> float:
        return float(sum(np.trace(a).real for a in self.blocks))

    def copy(self) -> "BlockMatrix":
        # _sym gives a hermitian block's bits back unless an entry is below 2**-1021
        return _result(type(self), [b.copy() for b in self.blocks])

    def allclose(self, other: "BlockMatrix", atol: float = 1e-12) -> bool:
        self._check_same_shape(other)
        return all(
            np.allclose(a, b, rtol=0.0, atol=atol)
            for a, b in zip(self.blocks, other.blocks)
        )

    def max_abs_entry(self) -> float:
        return max(float(np.max(np.abs(a))) if a.size else 0.0 for a in self.blocks)

    def hermiticity_defect(self) -> float:
        return max(
            float(np.max(np.abs(a - a.conj().T))) for a in self.blocks
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dims={self.dims})"


class HermitianOperator(BlockMatrix):
    """Self-adjoint ``BlockMatrix``.

    Construction rejects inputs whose hermiticity defect exceeds
    ``1e-12 * scale`` and stores each block symmetrized by ``_sym``:
    ``A/2 + (A/2)*``, halved before the sum so that finite entries near the
    float limit stay finite.
    """

    __slots__ = ()

    def __init__(self, blocks: Iterable[np.ndarray]):
        super().__init__(blocks)
        defect = self.hermiticity_defect()
        scale = max(1.0, self.max_abs_entry())
        if defect > HERMITICITY_RTOL * scale:
            raise InputError(
                f"hermiticity defect {defect:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * scale ({scale:.3e})"
            )
        self.blocks = tuple(_sym(b) for b in self.blocks)

    @classmethod
    def _exact(cls, blocks: Iterable[np.ndarray]) -> "HermitianOperator":
        # for results hermitian by construction (sums, congruences, calculus)
        return _result(cls, blocks)

    @classmethod
    def from_diagonal(cls, dims: Sequence[int], diag: Sequence[float]) -> "HermitianOperator":
        if len(diag) != sum(dims):
            raise DimensionMismatch("diagonal length does not match block dims")
        blocks, k = [], 0
        for d in dims:
            blocks.append(np.diag(np.asarray(diag[k : k + d], dtype=np.float64)).astype(np.complex128))
            k += d
        return cls._exact(blocks)


@dataclass(frozen=True)
class SpectralData:
    """Blockwise eigendecomposition: ascending eigenvalues, unitary columns."""

    eigenvalues: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...]

    def all_eigenvalues(self) -> np.ndarray:
        return np.concatenate(self.eigenvalues)

    def min_eigenvalue(self) -> float:
        return float(min(v[0] for v in self.eigenvalues))

    def max_eigenvalue(self) -> float:
        return float(max(v[-1] for v in self.eigenvalues))


def eigh_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked eigendecomposition of a ``(k, d, d)`` stack of hermitian matrices.

    Returns ascending eigenvalues ``(k, d)`` and unitary columns
    ``(k, d, d)``, one batched ``_eigh`` call for the whole stack.  Raises
    ``NonConvergence`` if the eigensolver fails or any ``U diag(w) U*``
    misses its matrix by more than ``1e-10 * max(1, max|w|)`` in the
    Frobenius norm, ``w`` being that matrix's eigenvalues.
    """

    w, u = _eigh(stack)
    recon = (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)
    recon -= stack
    # Frobenius norm per matrix, without a squared copy of the stack
    flat = recon.view(np.float64).reshape(len(recon), -1)
    defect = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    big = np.isinf(defect)
    if big.any():
        # the sum of squares overflowed: scale by the largest entry first
        peak = np.max(np.abs(flat[big]), axis=1, keepdims=True)
        defect[big] = peak[:, 0] * np.linalg.norm(flat[big] / peak, axis=1)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    if not np.all(defect <= RECONSTRUCTION_RTOL * scale):
        raise NonConvergence("eigendecomposition failed reconstruction check")
    return w, u


def eigh(A: HermitianOperator) -> SpectralData:
    """Blockwise eigendecomposition with a reconstruction check.

    Each block goes through ``eigh_stack``, so each block must reproduce
    within ``1e-10 * max(1, max|w| of that block)`` in the Frobenius norm.
    Results are cached on the operand.  Raises ``NonConvergence`` if the
    eigensolver fails or a block fails its reconstruction check.
    """

    if A._spec is not None:
        return A._spec
    vals, vecs = [], []
    for b in A.blocks:
        w, u = eigh_stack(b[None])
        vals.append(w[0])
        vecs.append(u[0])
    A._spec = SpectralData(tuple(vals), tuple(vecs))
    return A._spec


def apply_spectral(A: HermitianOperator, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
    """Functional calculus ``f(A)`` for a real function ``f``.

    ``f`` receives the ascending eigenvalue array of one block at a time and
    must return finite real values; anything else raises ``DomainError``.
    """

    spec = eigh(A)
    blocks = []
    for w, u in zip(spec.eigenvalues, spec.vectors):
        with np.errstate(all="ignore"):
            fw = np.asarray(f(w))
        if fw.shape != w.shape:
            raise DomainError("spectral function must map eigenvalues elementwise")
        if np.iscomplexobj(fw):
            if np.max(np.abs(fw.imag)) > 0.0:
                raise DomainError("spectral function produced complex values")
            fw = fw.real
        fw = fw.astype(np.float64)
        if not np.all(np.isfinite(fw)):
            raise DomainError("spectral function undefined at an eigenvalue")
        blocks.append((u * fw) @ u.conj().T)
    return HermitianOperator._exact(blocks)


def positive_part(A: HermitianOperator) -> HermitianOperator:
    """Spectral positive part ``A_+`` (eigenvalues clipped below at 0)."""

    return apply_spectral(A, lambda w: np.maximum(w, 0.0))


def negative_part(A: HermitianOperator) -> HermitianOperator:
    """Spectral negative part ``A_- = (-A)_+``, so ``A = A_+ - A_-``."""

    return positive_part(-A)


def op_norm(A: BlockMatrix) -> float:
    """Operator (spectral) norm on the direct sum."""

    if isinstance(A, HermitianOperator):
        spec = eigh(A)
        return max(abs(spec.min_eigenvalue()), abs(spec.max_eigenvalue()))
    return max(float(np.linalg.norm(b, 2)) for b in A.blocks)


def _scaled(ws: Sequence[np.ndarray], rtol: float) -> float:
    # rtol * max(1, |least|, |largest|) over every block's ascending eigenvalues
    return rtol * max(1.0, abs(float(min(w[0] for w in ws))), abs(float(max(w[-1] for w in ws))))


def scaled_tol(A: HermitianOperator, rtol: float) -> float:
    """``rtol * max(1, op norm)``: the PSD test's tolerance and the default cut width."""

    return _scaled(eigh(A).eigenvalues, rtol)


def is_psd(A: HermitianOperator, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue is ``>= -tol * max(1, op norm)``."""

    return min_eigenvalue(A) >= -scaled_tol(A, tol)


def _cut(ws, lo, hi, eps_kernel, strict) -> tuple[float, list[np.ndarray]]:
    """The spectral-cut rule: the cut width and, per block, the eigenvalues kept.

    ``ws`` holds each block's ascending eigenvalues; the mask of a block
    keeps those in ``(lo + eps, hi + eps]``, the module docstring's
    convention, and strict mode raises ``AmbiguousSpectralCut`` on an
    eigenvalue within ``eps`` of a finite ``lo``.  ``eps`` is
    ``eps_kernel``, or ``scaled_tol``'s ``1e-8 * max(1, |lambda_min|,
    |lambda_max|)`` over every block when it is None.  A ``lo`` of None is
    the support cut: ``lo`` is ``eps`` itself, eigenvalues up to it are the
    kernel, and strict mode raises only on those the band pushes out,
    ``(eps, 2 eps]``.
    """

    eps = _scaled(ws, KERNEL_EPS) if eps_kernel is None else float(eps_kernel)
    support = lo is None
    lo = eps if support else lo
    if not lo < hi:
        raise InputError(f"empty interval ({lo}, {hi}]")
    masks = []
    for w in ws:
        mask = w > lo + eps if math.isfinite(lo) else np.ones_like(w, dtype=bool)
        if strict and math.isfinite(lo):
            near = (w > lo) & ~mask if support else np.abs(w - lo) <= eps
            if near.any():
                raise AmbiguousSpectralCut(f"eigenvalue within {eps:.3e} of cut point {lo}")
        if math.isfinite(hi):
            mask &= w <= hi + eps
        masks.append(mask)
    return eps, masks


def _projector(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # the projection onto the columns of u that mask keeps
    cols = u[:, mask]
    return cols @ cols.conj().T


def spectral_projection(
    A: HermitianOperator,
    interval: tuple[float, float],
    eps_kernel: float | None = None,
    strict: bool = False,
) -> HermitianOperator:
    """Spectral projection of ``A`` onto the half-open interval ``(lo, hi]``.

    Eigenvalues within ``eps_kernel`` of the open endpoint ``lo`` are
    ambiguous: by default they are classified outside the projection
    (shrinking it), in strict mode they raise ``AmbiguousSpectralCut``.
    Eigenvalues within ``eps_kernel`` of a finite closed endpoint ``hi``
    stay inside, honoring the closure.  ``eps_kernel`` defaults to
    ``1e-8 * max(1, op norm)``.  The classification is ``_cut``'s.
    """

    spec = eigh(A)
    _, masks = _cut(spec.eigenvalues, float(interval[0]), float(interval[1]), eps_kernel, strict)
    return HermitianOperator._exact([_projector(u, m) for u, m in zip(spec.vectors, masks)])


def schatten_norm(A: BlockMatrix, p: float) -> float:
    """Schatten p-norm of the direct sum, ``1 <= p <= inf``."""

    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponent(f"exponent must be a number, got {p!r}") from exc
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"Schatten exponent must satisfy p >= 1, got {p}")
    if isinstance(A, HermitianOperator):
        s = np.abs(eigh(A).all_eigenvalues())
    else:
        s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in A.blocks])
    if math.isinf(p):
        return float(np.max(s))
    smax = float(np.max(s))
    if smax == 0.0:
        return 0.0
    # factor out the largest singular value so s**p cannot overflow
    return smax * float(np.sum((s / smax) ** p) ** (1.0 / p))


def conjugate(P: BlockMatrix, X: HermitianOperator) -> HermitianOperator:
    """Congruence ``P X P*`` (hermitian for hermitian ``X``)."""

    P._check_same_shape(X)
    return HermitianOperator._exact(
        [p @ x @ p.conj().T for p, x in zip(P.blocks, X.blocks)]
    )


def compress(P: HermitianOperator, X: HermitianOperator) -> HermitianOperator:
    """Two-sided compression ``P X P`` for self-adjoint ``P`` (e.g. projections)."""

    P._check_same_shape(X)
    return HermitianOperator._exact(
        [p @ x @ p for p, x in zip(P.blocks, X.blocks)]
    )


def min_eigenvalue(A: HermitianOperator) -> float:
    return eigh(A).min_eigenvalue()


def max_eigenvalue(A: HermitianOperator) -> float:
    return eigh(A).max_eigenvalue()
