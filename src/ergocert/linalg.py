"""Dense linear algebra on direct sums of full matrix blocks.

Every operator in this package lives on a direct sum of square complex
blocks.  A ``BlockMatrix`` is the raw container; a ``HermitianOperator``
additionally guarantees self-adjointness (inputs are defect-checked, then
symmetrized).  Spectral routines work blockwise through ``numpy.linalg``
and feed a small functional calculus: ``apply_spectral``, positive parts,
and spectral projections with an explicit tolerance policy at cut points.

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
* spectral cut classification: eigenvalues within ``eps_kernel`` of a
  finite open cut endpoint are pushed to the complement of the returned
  projection (the conservative side); strict mode raises instead.  The
  closed endpoint of a half-open interval keeps its closure: eigenvalues
  within ``eps_kernel`` of it stay inside the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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


def _as_blocks(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    out = []
    for b in blocks:
        arr = np.array(b, dtype=np.complex128, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InputError(f"blocks must be square matrices, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise InputError("block entries must be finite")
        out.append(arr)
    if not out:
        raise InputError("at least one block is required")
    return tuple(out)


class BlockMatrix:
    """Block-diagonal complex matrix, stored one square block at a time."""

    __slots__ = ("blocks", "_spec")

    def __init__(self, blocks: Iterable[np.ndarray]):
        self.blocks = _as_blocks(blocks)
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
        return cls([np.zeros((d, d), dtype=np.complex128) for d in dims])

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "BlockMatrix":
        return cls([np.eye(d, dtype=np.complex128) for d in dims])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix([a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "BlockMatrix":
        return BlockMatrix([-a for a in self.blocks])

    def __rmul__(self, c: complex) -> "BlockMatrix":
        return BlockMatrix([c * a for a in self.blocks])

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix([a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix([a.conj().T for a in self.blocks])

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def real_trace(self) -> float:
        return float(sum(np.trace(a).real for a in self.blocks))

    def copy(self) -> "BlockMatrix":
        return BlockMatrix(self.blocks)

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
    ``1e-12 * scale`` and stores the symmetrized ``(A + A*)/2``.
    """

    __slots__ = ()

    def __init__(self, blocks: Iterable[np.ndarray], *, _skip_check: bool = False):
        super().__init__(blocks)
        if not _skip_check:
            defect = self.hermiticity_defect()
            scale = max(1.0, self.max_abs_entry())
            if defect > HERMITICITY_RTOL * scale:
                raise InputError(
                    f"hermiticity defect {defect:.3e} exceeds "
                    f"{HERMITICITY_RTOL:.0e} * scale ({scale:.3e})"
                )
        self.blocks = tuple(0.5 * (a + a.conj().T) for a in self.blocks)

    @classmethod
    def _exact(cls, blocks: Iterable[np.ndarray]) -> "HermitianOperator":
        # for results hermitian by construction (sums, congruences, calculus)
        return cls(blocks, _skip_check=True)

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "HermitianOperator":
        return cls._exact([np.zeros((d, d), dtype=np.complex128) for d in dims])

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "HermitianOperator":
        return cls._exact([np.eye(d, dtype=np.complex128) for d in dims])

    @classmethod
    def from_diagonal(cls, dims: Sequence[int], diag: Sequence[float]) -> "HermitianOperator":
        if len(diag) != sum(dims):
            raise DimensionMismatch("diagonal length does not match block dims")
        blocks, k = [], 0
        for d in dims:
            blocks.append(np.diag(np.asarray(diag[k : k + d], dtype=np.float64)).astype(np.complex128))
            k += d
        return cls._exact(blocks)

    def __add__(self, other: BlockMatrix) -> BlockMatrix:
        self._check_same_shape(other)
        blocks = [a + b for a, b in zip(self.blocks, other.blocks)]
        if isinstance(other, HermitianOperator):
            return HermitianOperator._exact(blocks)
        return BlockMatrix(blocks)

    def __sub__(self, other: BlockMatrix) -> BlockMatrix:
        self._check_same_shape(other)
        blocks = [a - b for a, b in zip(self.blocks, other.blocks)]
        if isinstance(other, HermitianOperator):
            return HermitianOperator._exact(blocks)
        return BlockMatrix(blocks)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator._exact([-a for a in self.blocks])

    def __rmul__(self, c: complex) -> BlockMatrix:
        blocks = [c * a for a in self.blocks]
        if isinstance(c, (int, float)) or (isinstance(c, complex) and c.imag == 0.0):
            return HermitianOperator._exact(blocks)
        return BlockMatrix(blocks)


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
    ``(k, d, d)``, one batched solver call for the whole stack.  Raises
    ``NonConvergence`` if the eigensolver fails or any ``U diag(w) U*``
    misses its matrix by more than ``1e-10 * max(1, max|w|)`` in the
    Frobenius norm, ``w`` being that matrix's eigenvalues.
    """

    try:
        w, u = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc
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


def is_psd(A: HermitianOperator, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue is ``>= -tol * max(1, op norm)``."""

    spec = eigh(A)
    scale = max(1.0, abs(spec.min_eigenvalue()), abs(spec.max_eigenvalue()))
    return spec.min_eigenvalue() >= -tol * scale


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
    ``1e-8 * max(1, op norm)``.
    """

    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise InputError(f"empty interval ({lo}, {hi}]")
    spec = eigh(A)
    if eps_kernel is None:
        scale = max(1.0, abs(spec.min_eigenvalue()), abs(spec.max_eigenvalue()))
        eps_kernel = KERNEL_EPS * scale
    blocks = []
    for w, u in zip(spec.eigenvalues, spec.vectors):
        if strict and math.isfinite(lo) and np.any(np.abs(w - lo) <= eps_kernel):
            raise AmbiguousSpectralCut(
                f"eigenvalue within {eps_kernel:.3e} of cut point {lo}"
            )
        mask = w > lo + eps_kernel if math.isfinite(lo) else np.ones_like(w, dtype=bool)
        if math.isfinite(hi):
            mask &= w <= hi + eps_kernel
        cols = u[:, mask]
        blocks.append(cols @ cols.conj().T)
    return HermitianOperator._exact(blocks)


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
