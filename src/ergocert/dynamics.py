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
together with its trace adjoint acting back on the algebra.

Every map acts on arrays through one private action,
``PositiveMapModel._act``: per-block matrices, or per-block ``(k, d, d)``
stacks of k inputs, go to their unsymmetrized image with the bits
``apply`` gives each matrix alone (a Kraus map on the embedded full
matrices, a superoperator as ``M @ vec`` per vector).  ``apply`` is one
membership check and ``_result`` around it.  Cesaro averages are computed
by accumulating iterated powers on those arrays (``_averages``), formed
where the operators' rule forms results, so the averages of one input or
of a stack of inputs build no operator per average or per application;
``cesaro_reps`` makes operators of them only on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import count, product

import numpy as np

from .algebra import Algebra, LOneElement, State, modular_flow
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
    _eigvalsh,
    _form,
    _result,
    _sym,
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


def _to_full(blocks: list[np.ndarray]) -> np.ndarray:
    # the blocks, matrices or (..., d, d) stacks, on the diagonal of full matrices
    dims = [b.shape[-1] for b in blocks]
    full = np.zeros((*blocks[0].shape[:-2], sum(dims), sum(dims)), dtype=np.complex128)
    for k, d, b in zip(_offsets(dims), dims, blocks):
        full[..., k : k + d, k : k + d] = b
    return full


def _pinch_full(signature: tuple[int, ...], full: np.ndarray) -> list[np.ndarray]:
    return [full[..., k : k + d, k : k + d] for k, d in zip(_offsets(signature), signature)]


def _vec(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([b.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)


def _unvec(signature: tuple[int, ...], v: np.ndarray) -> list[np.ndarray]:
    offsets = _offsets([d * d for d in signature])
    return [v[..., k : k + d * d].reshape(*v.shape[:-1], d, d) for k, d in zip(offsets, signature)]


def _transpose_permutation(signature: tuple[int, ...]) -> np.ndarray:
    # index permutation realizing blockwise entry transposition on vecs
    perm, k = [], 0
    for d in signature:
        idx = np.arange(d * d).reshape(d, d).T.reshape(-1)
        perm.extend((k + idx).tolist())
        k += d * d
    return np.asarray(perm, dtype=np.intp)


# -- map models ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PositiveMapModel:
    """Linear map on a block algebra with a positivity pedigree.

    kind "kraus": apply(x) = pinch(sum_i w_i V_i* x V_i) with full-matrix
    Kraus operators V_i and positive weights w_i.  kind "superop": apply
    acts through an explicit matrix on concatenated block entries.
    Nothing proves such a matrix positive, so a superop model is
    ``UNVERIFIED`` or ``SAMPLED_POSITIVE``: ``CONSTRUCTED_POSITIVE``,
    which the sup-norm and contraction checks take as proof, raises
    ``InputError``.
    """

    algebra: Algebra
    kind: str
    pedigree: Pedigree
    kraus_weights: np.ndarray | None = None
    kraus_ops: tuple[np.ndarray, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "superop" and self.pedigree is Pedigree.CONSTRUCTED_POSITIVE:
            raise InputError(
                "a superoperator cannot be marked constructed-positive; "
                "build the map from Kraus operators instead"
            )

    @classmethod
    def from_kraus(
        cls,
        algebra: Algebra,
        ops: list[np.ndarray],
        weights: list[float] | None = None,
        pedigree: Pedigree = Pedigree.CONSTRUCTED_POSITIVE,
    ) -> "PositiveMapModel":
        """A Kraus model on copies of ``ops`` and ``weights`` (unit weights for None)."""

        clean = [np.array(v, dtype=np.complex128, copy=True, order="C") for v in ops]
        w = np.ones(len(clean)) if weights is None else np.array(weights, dtype=np.float64)
        return cls._kraus(algebra, clean, w, pedigree)

    @classmethod
    def _kraus(
        cls, algebra: Algebra, ops: list[np.ndarray], w: np.ndarray,
        pedigree: Pedigree = Pedigree.CONSTRUCTED_POSITIVE,
    ) -> "PositiveMapModel":
        """A Kraus model that keeps ``ops`` and ``w`` themselves, checked and made read-only.

        For arrays no caller writes: complex C-ordered operators (``_act``'s
        bits rest on the order) and a float weight vector, which may be
        another model's.  The examples and ``random_certified_map`` pass
        the arrays they have just built; the pedigree defaults to
        ``from_kraus``'s.
        """

        n = algebra.total_dim
        if not ops:
            raise InputError("a Kraus family needs at least one operator")
        for v in ops:
            if v.shape != (n, n):
                raise DimensionMismatch(f"Kraus operator shape {v.shape} vs {(n, n)}")
            if not np.isfinite(v.view(np.float64)).all():
                raise InputError("Kraus operator has non-finite entries")
            v.setflags(write=False)
        if w.shape != (len(ops),) or not np.isfinite(w).all() or (w <= 0).any():
            raise InputError("Kraus weights must be positive reals, one per operator")
        w.setflags(write=False)
        return cls(algebra, "kraus", pedigree, kraus_weights=w, kraus_ops=tuple(ops))

    @classmethod
    def from_superop(
        cls,
        algebra: Algebra,
        matrix: np.ndarray,
        pedigree: Pedigree = Pedigree.UNVERIFIED,
    ) -> "PositiveMapModel":
        """A map given by its matrix; the pedigree cannot be ``CONSTRUCTED_POSITIVE``."""

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
        return _result(type(x), self._act(x.blocks))

    def _act(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        # the image, unsymmetrized and unchecked, of per-block matrices or of
        # per-block (k, d, d) stacks, matrix by matrix with apply's bits
        if self.kind == "kraus":
            full = _to_full(blocks)
            acc = np.zeros_like(full)
            for w, v in zip(self.kraus_weights, self.kraus_ops):
                acc += w * (v.conj().T @ full @ v)
            return _pinch_full(self.algebra.signature, acc)
        out = (self.matrix @ _vec(blocks)[..., None])[..., 0]
        return _unvec(self.algebra.signature, out)

    def trace_adjoint(self) -> "PositiveMapModel":
        """Adjoint for the trace pairing Tr(T(x)* y) = Tr(x* T_adj(y))."""

        if self.kind == "kraus":
            flipped = [np.conj(v.T, order="C") for v in self.kraus_ops]
            return PositiveMapModel._kraus(self.algebra, flipped, self.kraus_weights, self.pedigree)
        return PositiveMapModel(
            self.algebra, "superop", self.pedigree, matrix=self.matrix.conj().T
        )

    def as_superop(self) -> np.ndarray:
        """Explicit matrix of the action on concatenated block entries."""

        if self.kind == "superop":
            return np.array(self.matrix)
        return _matrix_of(self.algebra, self._act)


def _matrix_of(algebra: Algebra, act) -> np.ndarray:
    # the matrix of an array action (as _act) on concatenated block entries,
    # one basis element at a time, so no more than one image is held at once
    c = algebra.coeff_dim
    out = np.zeros((c, c), dtype=np.complex128)
    for k in range(c):
        v = np.zeros(c, dtype=np.complex128)
        v[k] = 1.0
        out[:, k] = _vec(act(_unvec(algebra.signature, v)))
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
        blocks = list(zeros)
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


def _require_conditions(report: ConditionReport) -> None:
    """Raise ``ConditionsNotMet``, carrying ``report``, unless every condition holds.

    The message names each failed condition with its defect.
    """

    failures = []
    if not report.contraction_ok:
        failures.append(f"contraction defect {report.contraction_defect:.3e}")
    if not report.trace_decrease_ok:
        failures.append(f"trace increase {report.trace_decrease_defect:.3e}")
    if not report.positivity_ok:
        failures.append(f"sampled positivity defect {report.positivity_worst:.3e}")
    if failures:
        exc = ConditionsNotMet("; ".join(failures))
        exc.report = report
        raise exc


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

        self.base.algebra.check_member(x)
        return _result(type(x), self._lp_act(x.blocks, p, isinstance(x, HermitianOperator)))

    def _lp_act(self, blocks: list[np.ndarray], p: float, hermitian: bool) -> list[np.ndarray]:
        # lp_apply on per-block arrays, left unformed as _act leaves its image;
        # the steps between are formed (_form) where lp_apply's operators were
        pf = float(p)
        if math.isnan(pf) or pf < 1.0:
            raise InvalidExponent(f"Lp exponent must satisfy p >= 1, got {p}")
        if math.isinf(pf):
            return self.base._act(blocks)
        outer = self.state.power(1.0 / (2.0 * pf)).blocks
        inner = self.state.power(-1.0 / (2.0 * pf)).blocks
        mid = self.base._act([_form(i @ b @ i, hermitian) for i, b in zip(inner, blocks)])
        return [o @ _form(m, hermitian) @ o for o, m in zip(outer, mid)]


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
    _require_conditions(report)

    half = state.power(0.5).blocks
    neg_half = state.power(-0.5).blocks
    if T.kind == "kraus":
        # rho^{1/2} (V* rho^{-1/2} a rho^{-1/2} V) rho^{1/2} = U* a U
        half_full, neg_half_full = _to_full(half), _to_full(neg_half)
        ops = [neg_half_full @ v @ half_full for v in T.kraus_ops]
        l1_action = PositiveMapModel._kraus(T.algebra, ops, T.kraus_weights, T.pedigree)
    else:

        def act(blocks: list[np.ndarray]) -> list[np.ndarray]:
            mid = T._act([g @ b @ g for g, b in zip(neg_half, blocks)])
            return [h @ y @ h for h, y in zip(half, mid)]

        l1_action = PositiveMapModel(
            T.algebra, "superop", T.pedigree, matrix=_matrix_of(T.algebra, act)
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
    """Raw average sequence under iterated applications of a map model.

    ``rep`` is checked a member once; the recursion runs on its blocks
    (``_averages``), and each average becomes an operator of ``rep``'s
    class only on the way out.  ``_result`` forms the average's blocks
    again, which gives their bits back unless an entry is below 2**-1021.
    """

    if n < 0:
        raise InputError(f"horizon must be >= 0, got {n}")
    model.algebra.check_member(rep)
    hermitian = isinstance(rep, HermitianOperator)
    return [_result(type(rep), s) for s in _averages(model._act, rep.blocks, hermitian, n)]


def _averages(act, blocks: list[np.ndarray], hermitian: bool, n: int | None):
    """Yield S_0(x), ..., S_n(x) with S_r = (1/(r+1)) sum_{k<=r} act^k(x).

    x is given per algebra block, as matrices or as ``(k, d, d)`` stacks of
    k inputs averaged at once, and each S_r comes out the same way; S_0 is
    ``blocks`` itself.  ``act`` maps such blocks to their unsymmetrized
    image (``PositiveMapModel._act``).  Each application, each sum and
    each scaling is formed by ``_form``, where the operators' ``_result``
    formed it: checked finite (``InputError``, as for an operator's
    blocks), then symmetrized by ``_sym`` for a hermitian x and left
    unsymmetrized for any other, so every average yielded is finite.  No
    operator is built and no membership is checked here; callers check x
    once.  With ``n`` None the sequence does not end.
    """

    power = acc = blocks
    yield blocks
    for r in count(1) if n is None else range(1, n + 1):
        power = [_form(b, hermitian) for b in act(power)]
        acc = [_form(s + b, hermitian) for s, b in zip(acc, power)]
        yield [_form((1.0 / (r + 1)) * s, hermitian) for s in acc]


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
    return algebra, state, PositiveMapModel._kraus(algebra, ops, np.array(weights))


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


def _modular_invariant(sig, groups, state: State) -> bool:
    """Whether the modular flow keeps every matrix unit of the partition's
    subalgebra inside it, at each of ``MODULAR_CHECK_TIMES``."""

    for c, idx_groups in enumerate(groups):
        for g in idx_groups:
            for i, j in product(g, repeat=2):
                blocks = [np.zeros((d, d), dtype=np.complex128) for d in sig]
                blocks[c][i, j] = 1.0
                b = _result(BlockMatrix, blocks)
                for t in MODULAR_CHECK_TIMES:
                    y = modular_flow(b, t, state)
                    pinched = _result(BlockMatrix, _partition_pinch(sig, groups, y))
                    if op_norm(y - pinched) > MODULAR_INVARIANCE_RTOL:
                        return False
    return True


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

    if algebra.signature != state.algebra.signature:
        raise DimensionMismatch("state does not live on the given algebra")
    groups = _validate_partition(algebra, partition)
    sig = algebra.signature
    invariant = _modular_invariant(sig, groups, state)

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
        return PositiveMapModel._kraus(algebra, projections, np.ones(len(projections)))

    rho_n = HermitianOperator._exact(_partition_pinch(sig, groups, state.rho))
    rho_n_inv_half = _to_full(apply_spectral(rho_n, lambda w: w ** (-0.5)).blocks)
    rho_half = _to_full(state.power(0.5).blocks)
    ops = [rho_half @ p @ rho_n_inv_half for p in projections]
    return PositiveMapModel._kraus(algebra, ops, np.ones(len(ops)))


def random_certified_map(
    seed: int,
    algebra: Algebra,
    state: State,
    max_attempts: int = 8,
) -> PositiveMapModel:
    """Seeded Kraus map rescaled so conditions (1)-(3) hold exactly."""

    rng = np.random.default_rng(seed)
    n = algebra.total_dim
    rho_full = _to_full(state.rho.blocks)
    neg_half_full = _to_full(state.power(-0.5).blocks)
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
            float(_eigvalsh(_sym(gram))[-1]),
            float(_eigvalsh(_sym(sandwiched))[-1]),
        )
        if bound <= 0.0:
            continue
        s = math.sqrt(0.99 / bound)
        model = PositiveMapModel._kraus(algebra, [s * v for v in ops], weights)
        if check_conditions(model, state).all_ok:
            return model
    raise GenerationFailure(
        f"no certified map after {max_attempts} rescaling attempts (seed {seed})"
    )
