"""Block matrix algebras with a faithful state, and the L1/Lp plumbing.

The algebra is a direct sum of full matrix blocks.  A ``State`` is a
positive-definite block density with unit trace; it doubles as the L1
representative of the reference derivative, so the symmetric embedding of
an algebra element x is ``rho^{1/2} x rho^{1/2}`` and integrals of L1
representatives are plain traces.  A ``Weight`` is the unnormalized
variant; only the tracial one (density = identity) is accepted by the
tracial pipeline.

Real powers of the density are formed by functional calculus and cached
per exponent on the owning ``State``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InputError,
    InvalidExponent,
    NotFaithful,
    NotNormalized,
)
from .linalg import (
    BlockMatrix,
    HermitianOperator,
    _result,
    apply_spectral,
    eigh,
    is_psd,
    op_norm,
    schatten_norm,
)

MAX_COEFF_DIM = 1_000_000
STATE_TRACE_TOL = 1e-10
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class Algebra:
    """Direct sum of full matrix blocks, identified by its block sizes."""

    signature: tuple[int, ...]

    def __post_init__(self):
        sig = tuple(int(n) for n in self.signature)
        if not sig or any(n < 1 for n in sig):
            raise InputError(f"block dimensions must be >= 1, got {sig}")
        if sum(n * n for n in sig) > MAX_COEFF_DIM:
            raise InputError("coefficient dimension exceeds configured maximum")
        object.__setattr__(self, "signature", sig)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.signature

    @property
    def total_dim(self) -> int:
        return sum(self.signature)

    @property
    def coeff_dim(self) -> int:
        return sum(n * n for n in self.signature)

    def identity(self) -> HermitianOperator:
        return HermitianOperator.identity(self.signature)

    def zeros(self) -> HermitianOperator:
        return HermitianOperator.zeros(self.signature)

    def check_member(self, x: BlockMatrix) -> None:
        if x.dims != self.signature:
            raise DimensionMismatch(f"element dims {x.dims} vs algebra {self.signature}")


class State:
    """Faithful normal state: positive-definite block density of unit trace."""

    __slots__ = ("algebra", "rho", "_powers")

    def __init__(self, algebra: Algebra, rho: HermitianOperator):
        algebra.check_member(rho)
        spec = eigh(rho)
        lo, hi = spec.min_eigenvalue(), spec.max_eigenvalue()
        if lo <= 0.0:
            raise NotFaithful(f"density has eigenvalue {lo:.3e} <= 0")
        if abs(rho.real_trace() - 1.0) > STATE_TRACE_TOL:
            raise NotNormalized(f"density trace {rho.real_trace()!r} != 1")
        if hi / lo > MAX_CONDITION:
            raise IllConditioned(f"density condition number {hi / lo:.3e} > {MAX_CONDITION:.0e}")
        self.algebra = algebra
        self.rho = rho
        self._powers: dict[float, HermitianOperator] = {}

    def power(self, t: float) -> HermitianOperator:
        """rho**t by functional calculus, cached per exponent."""

        t = float(t)
        cached = self._powers.get(t)
        if cached is None:
            cached = apply_spectral(self.rho, lambda w: w**t)
            self._powers[t] = cached
        return cached

    def unitary_power(self, t: float) -> BlockMatrix:
        """rho**(it), the modular flow unitary at time t."""

        spec = eigh(self.rho)
        blocks = []
        for w, u in zip(spec.eigenvalues, spec.vectors):
            phases = np.exp(1j * t * np.log(w))
            blocks.append((u * phases) @ u.conj().T)
        return _result(BlockMatrix, blocks)

    def expectation(self, x: BlockMatrix) -> float:
        """phi(x) = Tr(rho x) for self-adjoint x (real part returned)."""

        self.algebra.check_member(x)
        return (self.rho @ x).real_trace()

    def __repr__(self) -> str:  # pragma: no cover
        return f"State(signature={self.algebra.signature})"


@dataclass(frozen=True)
class Weight:
    """Unnormalized positive block density; tracial iff it is the identity."""

    algebra: Algebra
    rho_w: HermitianOperator
    tracial: bool = field(init=False)

    def __post_init__(self):
        self.algebra.check_member(self.rho_w)
        if eigh(self.rho_w).min_eigenvalue() <= 0.0:
            raise NotFaithful("weight density must be positive definite")
        diff = self.rho_w - self.algebra.identity()
        object.__setattr__(self, "tracial", op_norm(diff) <= 1e-12)

    @classmethod
    def tracial_weight(cls, algebra: Algebra) -> "Weight":
        return cls(algebra, algebra.identity())


@dataclass(frozen=True)
class LOneElement:
    """L1 representative; the reference integral is its trace."""

    rep: BlockMatrix

    def integral(self) -> float:
        return self.rep.real_trace()

    def is_positive(self, tol: float = 1e-9) -> bool:
        return isinstance(self.rep, HermitianOperator) and is_psd(self.rep, tol)

    def trace_norm(self) -> float:
        return schatten_norm(self.rep, 1)


def make_state(algebra: Algebra, rho: HermitianOperator) -> State:
    """Validate a block density into a State (see State invariants)."""

    return State(algebra, rho)


def spatial_derivative(state: State) -> LOneElement:
    """L1 representative of the reference derivative: the density itself."""

    return LOneElement(state.rho)


def embed_l1(x: HermitianOperator, state: State) -> LOneElement:
    """Symmetric embedding x -> rho^{1/2} x rho^{1/2}."""

    state.algebra.check_member(x)
    half = state.power(0.5)
    return LOneElement(_result(type(x), (half @ x @ half).blocks))


def kosaki_norm(x: BlockMatrix, p: float, state: State) -> float:
    """Interpolated p-norm ‖rho^{1/(2p)} x rho^{1/(2p)}‖_{S_p}; p=inf is ‖x‖_op."""

    state.algebra.check_member(x)
    try:
        pf = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponent(f"exponent must be a number, got {p!r}") from exc
    if math.isinf(pf):
        return op_norm(x)
    if math.isnan(pf) or pf < 1.0:
        raise InvalidExponent(f"Kosaki exponent must satisfy p >= 1, got {p}")
    w = state.power(1.0 / (2.0 * pf))
    return schatten_norm(w @ x @ w, pf)


def modular_flow(x: BlockMatrix, t: float, state: State) -> BlockMatrix:
    """sigma_t(x) = rho^{it} x rho^{-it}; hermitian in, hermitian out."""

    state.algebra.check_member(x)
    u = state.unitary_power(float(t))
    return _result(type(x), [a @ b @ a.conj().T for a, b in zip(u.blocks, x.blocks)])


# -- seeded generators ----------------------------------------------------


def random_state(seed: int, algebra: Algebra, floor: float = 0.1) -> State:
    """Seeded well-conditioned faithful state on the algebra."""

    rng = np.random.default_rng(seed)
    blocks = []
    for d in algebra.signature:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T / d + floor * np.eye(d))
    raw = HermitianOperator._exact(blocks)
    return State(algebra, (1.0 / raw.real_trace()) * raw)


def random_positive_l1(seed: int, algebra: Algebra, trace: float = 1.0) -> LOneElement:
    """Seeded positive L1 representative with the requested trace."""

    if trace <= 0.0:
        raise InputError("trace must be positive")
    rng = np.random.default_rng(seed)
    blocks = []
    for d in algebra.signature:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    raw = HermitianOperator._exact(blocks)
    return LOneElement((trace / raw.real_trace()) * raw)
