"""Positive sub-tracial contractions and their L1 extension machinery.

A ``PositiveMapModel`` stores a linear map on a block algebra either as a
weighted Kraus family of full matrices (applied with a block pinch, so the
result lands back in the algebra) or as an explicit matrix acting on the
concatenated block entries.  Each model carries a positivity pedigree:
Kraus-built maps are positive by construction, explicit matrices are at
best sampled.

``check_conditions`` certifies the three standing hypotheses on a map T
with respect to a faithful state phi = Tr(rho .):

  (1) contraction, checked exactly through T(1) <= 1 for positive maps,
  (2) positivity, exact by pedigree or sampled on rank-one positives,
  (3) phi(T(y)) <= phi(y) for y >= 0, checked exactly through the trace
      adjoint: T_adj(rho) <= rho.

``extend_l1`` then realizes the induced map on L1 representatives by the
symmetric embedding, a -> rho^{1/2} T(rho^{-1/2} a rho^{-1/2}) rho^{1/2},
together with its trace adjoint acting back on the algebra.  Cesaro
averages of the L1 action are computed by accumulating iterated powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Algebra, LOneElement, State
from .errors import (
    ConditionsNotMet,
    DimensionMismatch,
    DomainError,
    GenerationFailure,
    InputError,
    InvalidExponent,
    NotStochastic,
    NotSubalgebra,
    NotSubInvariant,
)
from .linalg import (
    BlockMatrix,
    HermitianOperator,
    apply_spectral,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
)

HERMITICITY_PRESERVATION_RTOL = 1e-10
MODULAR_INVARIANCE_RTOL = 1e-10
DEFAULT_SAMPLES = 40
DEFAULT_CONDITION_TOL = 1e-9
MODULAR_CHECK_TIMES = (0.5, 1.0, math.sqrt(2.0))


class Pedigree(Enum):
    """How positivity of a map model is attested."""

    CONSTRUCTED_POSITIVE = "constructed"
    SAMPLED_POSITIVE = "sampled"
    UNVERIFIED = "unverified"


# -- full-matrix embedding helpers ----------------------------------------


def _offsets(signature: tuple[int, ...]) -> list[int]:
    offs, k = [], 0
    for d in signature:
        offs.append(k)
        k += d
    return offs


def _to_full(x: BlockMatrix) -> np.ndarray:
    n = sum(x.dims)
    full = np.zeros((n, n), dtype=np.complex128)
    k = 0
    for b in x.blocks:
        d = b.shape[0]
        full[k : k + d, k : k + d] = b
        k += d
    return full


def _pinch_full(signature: tuple[int, ...], full: np.ndarray) -> list[np.ndarray]:
    blocks, k = [], 0
    for d in signature:
        blocks.append(np.array(full[k : k + d, k : k + d]))
        k += d
    return blocks


def _vec(x: BlockMatrix) -> np.ndarray:
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def _unvec(signature: tuple[int, ...], v: np.ndarray) -> list[np.ndarray]:
    blocks, k = [], 0
    for d in signature:
        blocks.append(np.array(v[k : k + d * d].reshape(d, d)))
        k += d * d
    return blocks


def _transpose_permutation(signature: tuple[int, ...]) -> np.ndarray:
    # index permutation realizing blockwise entry transposition on vecs
    perm, k = [], 0
    for d in signature:
        idx = np.arange(d * d).reshape(d, d).T.reshape(-1)
        perm.extend((k + idx).tolist())
        k += d * d
    return np.asarray(perm, dtype=np.intp)


def _wrap_like(x: BlockMatrix, blocks: list[np.ndarray]) -> BlockMatrix:
    if isinstance(x, HermitianOperator):
        # map is hermiticity-preserving; symmetrize away roundoff skew
        return HermitianOperator._exact([0.5 * (b + b.conj().T) for b in blocks])
    return BlockMatrix(blocks)


# -- map models ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PositiveMapModel:
    """Linear map on a block algebra with a positivity pedigree.

    kind "kraus": apply(x) = pinch(sum_i w_i V_i* x V_i) with full-matrix
    Kraus operators V_i and positive weights w_i.  kind "superop": apply
    acts through an explicit matrix on concatenated block entries.
    """

    algebra: Algebra
    kind: str
    pedigree: Pedigree
    kraus_weights: np.ndarray | None = None
    kraus_ops: tuple[np.ndarray, ...] | None = None
    matrix: np.ndarray | None = None

    @classmethod
    def from_kraus(
        cls,
        algebra: Algebra,
        ops: list[np.ndarray],
        weights: list[float] | None = None,
        pedigree: Pedigree = Pedigree.CONSTRUCTED_POSITIVE,
    ) -> "PositiveMapModel":
        n = algebra.total_dim
        if not ops:
            raise InputError("a Kraus family needs at least one operator")
        clean = []
        for v in ops:
            arr = np.array(v, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (n, n):
                raise DimensionMismatch(f"Kraus operator shape {arr.shape} vs {(n, n)}")
            if not np.isfinite(arr.view(np.float64)).all():
                raise InputError("Kraus operator has non-finite entries")
            arr.setflags(write=False)
            clean.append(arr)
        if weights is None:
            w = np.ones(len(clean))
        else:
            w = np.asarray(weights, dtype=np.float64).copy()
        if w.shape != (len(clean),) or not np.isfinite(w).all() or (w <= 0).any():
            raise InputError("Kraus weights must be positive reals, one per operator")
        w.setflags(write=False)
        return cls(algebra, "kraus", pedigree, kraus_weights=w, kraus_ops=tuple(clean))

    @classmethod
    def from_superop(
        cls,
        algebra: Algebra,
        matrix: np.ndarray,
        pedigree: Pedigree = Pedigree.UNVERIFIED,
    ) -> "PositiveMapModel":
        m = np.array(matrix, dtype=np.complex128, copy=True, order="C")
        c = algebra.coeff_dim
        if m.shape != (c, c):
            raise DimensionMismatch(f"superoperator shape {m.shape} vs {(c, c)}")
        if not np.isfinite(m.view(np.float64)).all():
            raise InputError("superoperator has non-finite entries")
        # hermiticity preservation: conjugation by entry transposition + conj
        perm = _transpose_permutation(algebra.signature)
        twisted = np.conj(m[np.ix_(perm, perm)])
        scale = max(1.0, float(np.abs(m).max()))
        defect = float(np.abs(m - twisted).max())
        if defect > HERMITICITY_PRESERVATION_RTOL * scale:
            raise DomainError(
                f"map is not hermiticity-preserving: defect {defect:.3e} "
                f"exceeds {HERMITICITY_PRESERVATION_RTOL:.0e} * scale"
            )
        m.setflags(write=False)
        return cls(algebra, "superop", pedigree, matrix=m)

    @classmethod
    def identity(cls, algebra: Algebra) -> "PositiveMapModel":
        return cls.from_kraus(algebra, [np.eye(algebra.total_dim, dtype=np.complex128)])

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        self.algebra.check_member(x)
        if self.kind == "kraus":
            full = _to_full(x)
            acc = np.zeros_like(full)
            for w, v in zip(self.kraus_weights, self.kraus_ops):
                acc += w * (v.conj().T @ full @ v)
            return _wrap_like(x, _pinch_full(self.algebra.signature, acc))
        out = self.matrix @ _vec(x)
        return _wrap_like(x, _unvec(self.algebra.signature, out))

    def trace_adjoint(self) -> "PositiveMapModel":
        """Adjoint for the trace pairing Tr(T(x)* y) = Tr(x* T_adj(y))."""

        if self.kind == "kraus":
            flipped = [v.conj().T for v in self.kraus_ops]
            return PositiveMapModel.from_kraus(
                self.algebra, flipped, list(self.kraus_weights), self.pedigree
            )
        return PositiveMapModel(
            self.algebra, "superop", self.pedigree, matrix=self.matrix.conj().T
        )

    def as_superop(self) -> np.ndarray:
        """Explicit matrix of the action on concatenated block entries."""

        if self.kind == "superop":
            return np.array(self.matrix)
        return _superop_from_callable(self.algebra, self.apply)


def _superop_from_callable(algebra: Algebra, f) -> np.ndarray:
    c = algebra.coeff_dim
    out = np.zeros((c, c), dtype=np.complex128)
    for k in range(c):
        v = np.zeros(c, dtype=np.complex128)
        v[k] = 1.0
        out[:, k] = _vec(f(BlockMatrix(_unvec(algebra.signature, v))))
    return out


# -- condition certification ----------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the three standing hypotheses on a map."""

    contraction_ok: bool
    contraction_defect: float
    positivity_ok: bool
    positivity_mode: str
    positivity_worst: float
    trace_decrease_ok: bool
    trace_decrease_defect: float
    samples: int
    tol: float

    @property
    def all_ok(self) -> bool:
        return self.contraction_ok and self.positivity_ok and self.trace_decrease_ok


def _sampled_positivity_worst(T: PositiveMapModel, samples: int) -> float:
    # rank-one positives vv*, one block at a time, then local descent
    rng = np.random.default_rng(90210)
    sig = T.algebra.signature
    zeros = [np.zeros((d, d), dtype=np.complex128) for d in sig]

    def min_eig_at(c: int, v: np.ndarray) -> float:
        blocks = [b.copy() for b in zeros]
        blocks[c] = np.outer(v, v.conj())
        image = T.apply(HermitianOperator._exact(blocks))
        return min_eigenvalue(image)

    worst = np.inf
    worst_arg: tuple[int, np.ndarray] | None = None
    for s in range(max(1, samples)):
        c = s % len(sig)
        d = sig[c]
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        val = min_eig_at(c, v)
        if val < worst:
            worst, worst_arg = val, (c, v)
    if worst_arg is not None:
        c, v = worst_arg
        step = 0.3
        for _ in range(12):
            u = v + step * (rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size))
            u /= np.linalg.norm(u)
            val = min_eig_at(c, u)
            if val < worst:
                worst, v = val, u
            else:
                step *= 0.7
    return float(worst)


def check_conditions(
    T: PositiveMapModel,
    state: State,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_CONDITION_TOL,
) -> ConditionReport:
    """Certify conditions (1)-(3); returns verdicts, never raises."""

    return _condition_report(T, state.rho, samples, tol)


def _condition_report(
    T: PositiveMapModel, density: HermitianOperator, samples: int, tol: float
) -> ConditionReport:
    # condition (3) for the weight Tr(density .), a state's or the trace's
    one = T.algebra.identity()
    contraction_defect = max_eigenvalue(T.apply(one) - one)

    if T.pedigree is Pedigree.CONSTRUCTED_POSITIVE:
        positivity_mode, positivity_worst = "constructed", 0.0
        positivity_ok = True
    else:
        positivity_mode = "sampled"
        positivity_worst = _sampled_positivity_worst(T, samples)
        positivity_ok = positivity_worst >= -tol

    pushed = T.trace_adjoint().apply(density)
    trace_decrease_defect = max_eigenvalue(pushed - density)

    return ConditionReport(
        contraction_ok=bool(contraction_defect <= tol),
        contraction_defect=float(contraction_defect),
        positivity_ok=bool(positivity_ok),
        positivity_mode=positivity_mode,
        positivity_worst=float(positivity_worst),
        trace_decrease_ok=bool(trace_decrease_defect <= tol),
        trace_decrease_defect=float(trace_decrease_defect),
        samples=int(samples),
        tol=float(tol),
    )


# -- L1 extension and adjoint ----------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtendedMap:
    """A certified map with its L1 action and algebra-side adjoint.

    l1_action realizes a -> rho^{1/2} T(rho^{-1/2} a rho^{-1/2}) rho^{1/2}
    on L1 representatives; adjoint_action is its trace adjoint, so
    Tr(l1_action(a) x) = Tr(a adjoint_action(x)) holds by construction.
    """

    base: PositiveMapModel
    state: State
    l1_action: PositiveMapModel
    adjoint_action: PositiveMapModel
    report: ConditionReport

    def l1_apply(self, a: LOneElement) -> LOneElement:
        return LOneElement(self.l1_action.apply(a.rep))

    def adjoint_apply(self, x: BlockMatrix) -> BlockMatrix:
        return self.adjoint_action.apply(x)

    def lp_apply(self, x: BlockMatrix, p: float) -> BlockMatrix:
        """Action on Lp representatives through the d^{1/(2p)} embedding."""

        pf = float(p)
        if math.isnan(pf) or pf < 1.0:
            raise InvalidExponent(f"Lp exponent must satisfy p >= 1, got {p}")
        if math.isinf(pf):
            return self.base.apply(x)
        outer = self.state.power(1.0 / (2.0 * pf))
        inner = self.state.power(-1.0 / (2.0 * pf))
        mid = self.base.apply(_wrap_like(x, [b.copy() for b in (inner @ x @ inner).blocks]))
        return _wrap_like(x, [b.copy() for b in (outer @ mid @ outer).blocks])


def extend_l1(
    T: PositiveMapModel,
    state: State,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_CONDITION_TOL,
) -> ExtendedMap:
    """Extend a certified map to L1 representatives; see ExtendedMap."""

    if T.algebra.signature != state.algebra.signature:
        raise DimensionMismatch("map and state live on different algebras")
    report = check_conditions(T, state, samples=samples, tol=tol)
    if not report.all_ok:
        failed = [
            name
            for name, ok in [
                ("contraction", report.contraction_ok),
                ("positivity", report.positivity_ok),
                ("trace-decrease", report.trace_decrease_ok),
            ]
            if not ok
        ]
        exc = ConditionsNotMet(f"map fails: {', '.join(failed)}")
        exc.report = report
        raise exc

    half_full = _to_full(state.power(0.5))
    neg_half_full = _to_full(state.power(-0.5))
    if T.kind == "kraus":
        # rho^{1/2} (V* rho^{-1/2} a rho^{-1/2} V) rho^{1/2} = U* a U
        ops = [neg_half_full @ v @ half_full for v in T.kraus_ops]
        l1_action = PositiveMapModel.from_kraus(
            T.algebra, ops, list(T.kraus_weights), T.pedigree
        )
    else:
        half = state.power(0.5)
        neg_half = state.power(-0.5)

        def f(x: BlockMatrix) -> BlockMatrix:
            return half @ T.apply(BlockMatrix((neg_half @ x @ neg_half).blocks)) @ half

        l1_action = PositiveMapModel(
            T.algebra,
            "superop",
            T.pedigree,
            matrix=_superop_from_callable(T.algebra, f),
        )
    return ExtendedMap(
        base=T,
        state=state,
        l1_action=l1_action,
        adjoint_action=l1_action.trace_adjoint(),
        report=report,
    )


def adjoint_map(ext: ExtendedMap) -> PositiveMapModel:
    """Algebra-side adjoint, Tr(T1(a) x) = Tr(a Tadj(x)); Tadj(1) <= 1."""

    return ext.adjoint_action


def cesaro_reps(model: PositiveMapModel, rep: BlockMatrix, n: int) -> list[BlockMatrix]:
    """Raw average sequence under iterated applications of a map model."""

    if n < 0:
        raise InputError(f"horizon must be >= 0, got {n}")
    model.algebra.check_member(rep)
    return list(_averages(model.apply, rep, n))


def _averages(step, x: BlockMatrix, n: int):
    """Yield S_0(x), ..., S_n(x) with S_r = (1/(r+1)) sum_{k<=r} step^k(x)."""

    power = x
    acc = x
    yield x
    for r in range(1, n + 1):
        power = step(power)
        acc = acc + power
        yield (1.0 / (r + 1)) * acc


def cesaro_sequence(ext: ExtendedMap, a: LOneElement, n: int) -> list[LOneElement]:
    """S_0(a), ..., S_n(a) with S_r = (1/(r+1)) sum_{k<=r} T1^k(a)."""

    return [LOneElement(rep) for rep in cesaro_reps(ext.l1_action, a.rep, n)]


def cesaro(ext: ExtendedMap, a: LOneElement, r: int) -> LOneElement:
    """Cesaro average S_r(a) of the L1 action."""

    return cesaro_sequence(ext, a, r)[-1]


# -- worked examples --------------------------------------------------------


def example_tensor_markov(
    P: np.ndarray,
    mu: np.ndarray,
    inner: Algebra,
    inner_state: State,
) -> tuple[Algebra, State, PositiveMapModel]:
    """Markov shift tensored with the identity of an inner algebra.

    The algebra is |Omega| copies of the inner algebra; the state is
    mu (x) inner_state.  Sub-invariance mu P <= mu (entrywise) is what
    makes the state expectation non-increasing, so it is demanded rather
    than full stationarity.
    """

    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise NotStochastic(f"kernel must be a square matrix, got shape {P.shape}")
    if not np.isfinite(P).all() or (P < -1e-14).any():
        raise NotStochastic("kernel entries must be finite and nonnegative")
    rows = P.sum(axis=1)
    if np.abs(rows - 1.0).max() > 1e-10:
        raise NotStochastic(f"row sums deviate from 1 by {np.abs(rows - 1.0).max():.3e}")
    m = P.shape[0]
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (m,):
        raise DimensionMismatch(f"weight vector length {mu.shape} vs kernel size {m}")
    push = mu @ P
    if (push > mu + 1e-12).any():
        raise NotSubInvariant(
            f"mu P exceeds mu by {float((push - mu).max()):.3e} at some site"
        )
    if inner.signature != inner_state.algebra.signature:
        raise DimensionMismatch("inner state does not live on the inner algebra")

    signature = tuple(inner.signature) * m
    algebra = Algebra(signature)
    rho_blocks = []
    for w in range(m):
        for b in inner_state.rho.blocks:
            rho_blocks.append(mu[w] * b)
    state = State(algebra, HermitianOperator._exact(rho_blocks))

    d_in = inner.total_dim
    n = algebra.total_dim
    ops, weights = [], []
    for w in range(m):
        for w2 in range(m):
            if P[w, w2] <= 0.0:
                continue
            v = np.zeros((n, n), dtype=np.complex128)
            v[w2 * d_in : (w2 + 1) * d_in, w * d_in : (w + 1) * d_in] = np.eye(d_in)
            ops.append(v)
            weights.append(float(P[w, w2]))
    model = PositiveMapModel.from_kraus(algebra, ops, weights)
    return algebra, state, model


def _partition_items(value, what: str) -> list:
    if isinstance(value, (str, bytes)):
        raise NotSubalgebra(f"{what} must be a sequence, got {value!r}")
    try:
        return list(value)
    except TypeError as exc:
        raise NotSubalgebra(f"{what} must be a sequence, got {value!r}") from exc


def _is_index(i) -> bool:
    # true integers only: a float is never truncated and a bool is no index
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _validate_partition(
    algebra: Algebra, partition
) -> list[list[np.ndarray]]:
    """Per-block index groups; returns the groups as index arrays.

    Every level must be a sequence (strings are not) and every index a
    true integer; anything else raises ``NotSubalgebra``.
    """

    sig = algebra.signature
    per_block = _partition_items(partition, "partition")
    if len(per_block) != len(sig):
        raise NotSubalgebra(
            f"partition covers {len(per_block)} blocks, algebra has {len(sig)}"
        )
    groups_out = []
    for c, (d, groups) in enumerate(zip(sig, per_block)):
        idx_groups = []
        seen: list[int] = []
        for g in _partition_items(groups, f"block {c}: groups"):
            idx = _partition_items(g, f"block {c}: group")
            if not all(_is_index(i) for i in idx):
                raise NotSubalgebra(f"block {c}: group indices must be integers, got {g!r}")
            arr = np.asarray(sorted(int(i) for i in idx), dtype=np.intp)
            if arr.size == 0:
                raise NotSubalgebra(f"block {c}: empty group")
            idx_groups.append(arr)
            seen.extend(arr.tolist())
        if sorted(seen) != list(range(d)):
            raise NotSubalgebra(
                f"block {c}: groups {sorted(seen)} do not partition range({d})"
            )
        groups_out.append(idx_groups)
    return groups_out


def _partition_pinch(
    signature: tuple[int, ...],
    groups: list[list[np.ndarray]],
    x: BlockMatrix,
) -> list[np.ndarray]:
    blocks = []
    for d, idx_groups, b in zip(signature, groups, x.blocks):
        out = np.zeros((d, d), dtype=np.complex128)
        for g in idx_groups:
            out[np.ix_(g, g)] = b[np.ix_(g, g)]
        blocks.append(out)
    return blocks


def example_cond_expectation(
    algebra: Algebra,
    state: State,
    partition,
) -> PositiveMapModel:
    """Expectation onto the subalgebra of block matrices over a partition.

    When the subalgebra is invariant under the modular flow (checked at a
    few sampled times on a spanning set), the partition pinching is the
    state-preserving conditional expectation and is returned directly.
    Otherwise the generalized expectation is built from the standard-form
    recipe: m -> rhoN^{-1/2} pinch(rho^{1/2} m rho^{1/2}) rhoN^{-1/2} with
    rhoN the pinched density.  Both are unital, positive, and preserve the
    state expectation, hence satisfy conditions (1)-(3).
    """

    from .algebra import modular_flow

    if algebra.signature != state.algebra.signature:
        raise DimensionMismatch("state does not live on the given algebra")
    groups = _validate_partition(algebra, partition)
    sig = algebra.signature

    invariant = True
    for c, (d, idx_groups) in enumerate(zip(sig, groups)):
        for g in idx_groups:
            for i in g:
                for j in g:
                    blocks = [np.zeros((dd, dd), dtype=np.complex128) for dd in sig]
                    blocks[c][i, j] = 1.0
                    b = BlockMatrix(blocks)
                    for t in MODULAR_CHECK_TIMES:
                        y = modular_flow(b, t, state)
                        pinched = BlockMatrix(_partition_pinch(sig, groups, y))
                        if op_norm(y - pinched) > MODULAR_INVARIANCE_RTOL:
                            invariant = False
                            break
                    if not invariant:
                        break
                if not invariant:
                    break
            if not invariant:
                break
        if not invariant:
            break

    n = algebra.total_dim
    offs = _offsets(sig)
    projections = []
    for c, idx_groups in enumerate(groups):
        for g in idx_groups:
            p = np.zeros((n, n), dtype=np.complex128)
            for i in g:
                p[offs[c] + i, offs[c] + i] = 1.0
            projections.append(p)

    if invariant:
        return PositiveMapModel.from_kraus(algebra, projections)

    rho_n = HermitianOperator._exact(_partition_pinch(sig, groups, state.rho))
    rho_n_inv_half = _to_full(apply_spectral(rho_n, lambda w: w ** (-0.5)))
    rho_half = _to_full(state.power(0.5))
    ops = [rho_half @ p @ rho_n_inv_half for p in projections]
    return PositiveMapModel.from_kraus(algebra, ops)


def random_certified_map(
    seed: int,
    algebra: Algebra,
    state: State,
    max_attempts: int = 8,
) -> PositiveMapModel:
    """Seeded Kraus map rescaled so conditions (1)-(3) hold exactly."""

    rng = np.random.default_rng(seed)
    n = algebra.total_dim
    rho_full = _to_full(state.rho)
    neg_half_full = _to_full(state.power(-0.5))
    for _ in range(max_attempts):
        k = int(rng.integers(2, 4))
        ops = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(k)
        ]
        weights = rng.uniform(0.5, 1.5, size=k)
        gram = sum(w * (v.conj().T @ v) for w, v in zip(weights, ops))
        push = sum(w * (v @ rho_full @ v.conj().T) for w, v in zip(weights, ops))
        sandwiched = neg_half_full @ push @ neg_half_full
        bound = max(
            float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1]),
            float(np.linalg.eigvalsh(0.5 * (sandwiched + sandwiched.conj().T))[-1]),
        )
        if bound <= 0.0 or not np.isfinite(bound):
            continue
        s = math.sqrt(0.99 / bound)
        model = PositiveMapModel.from_kraus(
            algebra, [s * v for v in ops], weights.tolist()
        )
        if check_conditions(model, state).all_ok:
            return model
    raise GenerationFailure(
        f"no certified map after {max_attempts} rescaling attempts (seed {seed})"
    )
