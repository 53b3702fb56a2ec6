"""Constructive maximal-inequality certificates on block algebras.

Given a positive L1 element ``a``, a threshold ``lambda > 0``, and a
certified map extension, the engine maximizes the linear functional

    g(x_0, ..., x_n) = sum_r Tr(B_r x_r),   B_r = (r+1) (S_r(a) - lambda rho),

over the compact convex set K = {x_r >= 0, sum_r x_r <= 1}.  The ascent
combines two moves, each monotone and in closed form:

* a cyclic block update that replaces ``x_r`` by the exact maximizer of
  ``Tr(B_r x)`` over ``0 <= x <= C_r`` with ``C_r = 1 - sum_{s != r} x_s``
  (congruence by ``C_r^{1/2}`` followed by a spectral cut), and
* a pairwise dominance transfer that moves mass supported in ``x_r`` to a
  coordinate ``s`` where ``B_s`` dominates, which settles commuting
  instances exactly.

A feasible dual witness ``Z >= B_r, Z >= 0`` bounds the optimum by
``Tr(Z)``.  The support projection of ``z = 1 - sum_r x_r`` then carries
the certified inequalities, verified a posteriori and reported as signed
residual slacks (pass means every slack is ``>= -tol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .algebra import Algebra, LOneElement, State, Weight, kosaki_norm
from .dynamics import (
    DEFAULT_CONDITION_TOL,
    DEFAULT_SAMPLES,
    ExtendedMap,
    PositiveMapModel,
    _averages,
    _condition_report,
    cesaro_reps,
)
from .errors import (
    ConditionsNotMet,
    InputError,
    NonConvergence,
    NoStableLimit,
    NotStochastic,
    NotTracial,
)
from .linalg import (
    KERNEL_EPS,
    PSD_TOL,
    BlockMatrix,
    HermitianOperator,
    apply_spectral,
    compress,
    eigh,
    eigh_stack,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    schatten_norm,
    spectral_projection,
)

TOL_OBJ = 1e-10
STALL_GAP = 1e-4
RESIDUAL_RTOL = 1e-7
PROOF_IDENTITY_FACTOR = 10.0
SWAP_SCREEN_TOL = 1e-14
SAMPLER_SEED = 2718
STACK_SLICE_BYTES = 1 << 16


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the K-maximization and the uniform limit detection.

    ``max_sweeps`` bounds the ascent sweeps of one solve.  ``eps_kernel``
    of None defers to the scale-aware default of the spectral cut;
    ``strict_cuts`` makes eigenvalues at a cut raise instead of being
    pushed to its complement.  ``cluster_tol`` and ``window`` set when the
    projection sequence counts as stable, and ``check_horizon`` of None
    means four times the requested horizon.
    """

    max_sweeps: int = 200
    eps_kernel: float | None = None
    strict_cuts: bool = False
    cluster_tol: float = 1e-6
    window: int = 5
    check_horizon: int | None = None


DEFAULT_OPTIONS = SolveOptions()


@dataclass(frozen=True, eq=False)
class KPoint:
    """Feasible point of K: coordinates x_0, ..., x_n in the algebra."""

    xs: tuple[HermitianOperator, ...]

    def __post_init__(self):
        if not self.xs:
            raise InputError("a K-point needs at least one coordinate")
        dims = self.xs[0].dims
        for x in self.xs[1:]:
            if x.dims != dims:
                raise InputError("K-point coordinates live in different algebras")

    @property
    def order(self) -> int:
        return len(self.xs) - 1

    def total(self) -> HermitianOperator:
        acc = self.xs[0]
        for x in self.xs[1:]:
            acc = acc + x
        return acc

    def feasibility_defect(self) -> tuple[float, float]:
        """(worst negative coordinate eigenvalue, excess of the sum over 1)."""

        neg = min(min_eigenvalue(x) for x in self.xs)
        one = HermitianOperator.identity(self.xs[0].dims)
        excess = max_eigenvalue(self.total() - one)
        return float(neg), float(excess)

    @classmethod
    def zeros(cls, algebra: Algebra, n: int) -> "KPoint":
        return cls(tuple(algebra.zeros() for _ in range(n + 1)))


@dataclass(frozen=True, eq=False)
class MaximizerSolution:
    """Primal point, value, dual bound, and bookkeeping of one solve."""

    point: KPoint
    objective: float
    dual_bound: float
    gap: float
    sweeps: int
    blocks_B: tuple[HermitianOperator, ...]
    stalled: bool

    @property
    def order(self) -> int:
        return self.point.order


@dataclass(frozen=True, eq=False)
class Certificate:
    """Projection plus signed residual slacks; passing means all >= -tol."""

    projection: HermitianOperator
    lam: float
    kind: str
    order: int
    residuals: dict[str, float]
    passed: bool
    tolerances: dict[str, float]
    info: dict[str, float]

    def worst_residual(self) -> float:
        return min(self.residuals.values())


@dataclass(frozen=True, eq=False)
class LimitDiagnostics:
    """Stabilization record of the projection sequence e_1, ..., e_H."""

    distances: tuple[float, ...]
    cluster: tuple[int, ...]
    window: int
    cluster_tol: float
    stalled_solves: int
    h: HermitianOperator | None = None
    inverse_cut: HermitianOperator | None = None
    inverse_cut_norm: float = float("nan")


# -- dense per-block kernels -------------------------------------------------


def _sym(m: np.ndarray) -> np.ndarray:
    # hermitian part of a matrix, or of each matrix of a stack
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # noise floor only; no inversion happens anywhere in the ascent
    w, u = np.linalg.eigh(_sym(m))
    w = np.clip(w, 0.0, None)
    if w.size and w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return (u * np.sqrt(w)) @ u.conj().T


def _pair(b: np.ndarray, x: np.ndarray) -> float:
    # Tr(b x) for hermitian factors
    return float(np.vdot(b, x).real)


def _block_update(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact argmax of Tr(b x) over 0 <= x <= c (c positive semidefinite)."""

    chalf = _psd_sqrt(c)
    m = _sym(chalf @ b @ chalf)
    w, u = np.linalg.eigh(m)
    mask = w > 0.0
    if not mask.any():
        return np.zeros_like(b)
    v = chalf @ u[:, mask]
    return v @ v.conj().T


def _swap_pass(
    bs: np.ndarray, xs: list[np.ndarray], screen: np.ndarray
) -> bool:
    """Move mass of x_r into coordinates with dominating payoff, in place.

    The transfer D = X^{1/2} P X^{1/2}, with P the positive spectral
    projection of X^{1/2} (B_s - B_r) X^{1/2} and X = x_r, keeps
    x_r + x_s fixed, keeps both coordinates positive (Gram forms), and
    raises the objective by the sum of the cut's positive eigenvalues.
    """

    changed = False
    m = len(bs)
    for r in range(m):
        xhalf = None
        for s in range(m):
            if s == r or screen[r, s] <= SWAP_SCREEN_TOL:
                continue
            if float(xs[r].trace().real) <= SWAP_SCREEN_TOL:
                break
            if xhalf is None:
                xhalf = _psd_sqrt(xs[r])
            mm = _sym(xhalf @ (bs[s] - bs[r]) @ xhalf)
            w, u = np.linalg.eigh(mm)
            mask = w > 1e-15 * max(1.0, float(abs(w[-1])))
            if not mask.any():
                continue
            vpos = xhalf @ u[:, mask]
            vneg = xhalf @ u[:, ~mask]
            xs[r] = vneg @ vneg.conj().T
            xs[s] = _sym(xs[s] + vpos @ vpos.conj().T)
            xhalf = None
            changed = True
    return changed


def _swap_screen(bs: np.ndarray) -> np.ndarray:
    """screen[r, s] = largest eigenvalue of B_s - B_r (0 on the diagonal).

    Batched ``eigvalsh`` calls per row over the stacked payoffs.
    """

    stack = np.asarray(bs)
    screen = np.empty((len(stack), len(stack)))
    for r in range(len(stack)):
        for part in _slices(stack):
            screen[r, part] = np.linalg.eigvalsh(_sym(stack[part] - stack[r]))[:, -1]
        screen[r, r] = 0.0
    return screen


def _ascend_block(
    bs: np.ndarray,
    xs: list[np.ndarray],
    budget: int,
    to_fixed_point: bool,
) -> tuple[int, bool]:
    """Cyclic ascent on one algebra block; mutates xs, returns (sweeps, done).

    ``bs`` is the block's ``(m, d, d)`` payoff stack.  Swaps run when
    there are at least two coordinates.
    """

    m = len(bs)
    d = bs[0].shape[0]
    eye = np.eye(d, dtype=np.complex128)
    swaps = m > 1
    screen = _swap_screen(bs) if swaps else None
    obj = sum(_pair(b, x) for b, x in zip(bs, xs))
    sweeps = 0
    while sweeps < budget:
        sweeps += 1
        changed = False
        total = sum(xs)
        for r in reversed(range(m)):
            c = eye - (total - xs[r])
            xnew = _block_update(bs[r], c)
            if float(np.max(np.abs(xnew - xs[r]))) > 1e-14:
                total = total + (xnew - xs[r])
                xs[r] = xnew
                changed = True
        if swaps:
            if _swap_pass(bs, xs, screen):
                changed = True
        if not changed:
            return sweeps, True
        new_obj = sum(_pair(b, x) for b, x in zip(bs, xs))
        if not to_fixed_point and new_obj - obj <= TOL_OBJ * max(1.0, abs(new_obj)):
            return sweeps, True
        obj = new_obj
    return sweeps, False


# -- assembled solver ----------------------------------------------------------


def _resolve_eps(A: HermitianOperator, eps_kernel: float | None) -> float:
    if eps_kernel is not None:
        return float(eps_kernel)
    spec = eigh(A)
    scale = max(1.0, abs(spec.min_eigenvalue()), abs(spec.max_eigenvalue()))
    return KERNEL_EPS * scale


def _point_objective(
    blocks_B: tuple[HermitianOperator, ...], xs: list[HermitianOperator]
) -> float:
    return float(
        sum(
            sum(_pair(bb, xb) for bb, xb in zip(b.blocks, x.blocks))
            for b, x in zip(blocks_B, xs)
        )
    )


def _solve_from_blocks(
    algebra: Algebra,
    blocks_B: tuple[HermitianOperator, ...],
    opts: SolveOptions,
    warm: KPoint | None,
) -> MaximizerSolution:
    m = len(blocks_B)
    nblocks = len(algebra.signature)
    scale = max(1.0, max(op_norm(b) for b in blocks_B))

    if warm is not None:
        if len(warm.xs) != m:
            raise InputError(
                f"warm start has {len(warm.xs)} coordinates, expected {m}"
            )
        for x in warm.xs:
            algebra.check_member(x)
        xs_ops = [HermitianOperator._exact(x.blocks) for x in warm.xs]
    else:
        xs_ops = [algebra.zeros() for _ in range(m)]

    # fast path: nothing to collect when every payoff matrix is <= 0
    if all(max_eigenvalue(b) <= 0.0 for b in blocks_B) and warm is None:
        point = KPoint(tuple(xs_ops))
        dual = dual_upper_bound(blocks_B)
        return MaximizerSolution(
            point=point,
            objective=0.0,
            dual_bound=dual,
            gap=max(0.0, dual),
            sweeps=0,
            blocks_B=blocks_B,
            stalled=False,
        )

    # split into per-block dense problems (payoffs are block-diagonal)
    xs_arr = [
        [np.array(xs_ops[r].blocks[c]) for r in range(m)] for c in range(nblocks)
    ]
    bs_arr = [np.stack([b.blocks[c] for b in blocks_B]) for c in range(nblocks)]

    dual = dual_upper_bound(blocks_B)
    runs = [
        _ascend_block(bs_arr[c], xs_arr[c], opts.max_sweeps, False)
        for c in range(nblocks)
    ]
    total_sweeps = max(sw for sw, _ in runs)
    stalled = not all(done for _, done in runs)
    if not stalled:
        # polish to a literal fixed point of the block update; the pointwise
        # inequality is a first-order condition there, independent of the gap
        total_sweeps += max(
            _ascend_block(bs_arr[c], xs_arr[c], 30, True)[0]
            for c in range(nblocks)
        )

    xs_ops = [
        HermitianOperator._exact([xs_arr[c][r] for c in range(nblocks)])
        for r in range(m)
    ]
    point = KPoint(tuple(xs_ops))
    objective = _point_objective(blocks_B, xs_ops)
    gap = max(0.0, dual - objective)
    stalled = stalled and gap > STALL_GAP * scale
    return MaximizerSolution(
        point=point,
        objective=objective,
        dual_bound=dual,
        gap=gap,
        sweeps=total_sweeps,
        blocks_B=blocks_B,
        stalled=stalled,
    )


def _payoffs(
    seq: list[BlockMatrix], lam: float, density: HermitianOperator
) -> tuple[HermitianOperator, ...]:
    """Payoffs ``B_r = (r+1) (S_r(a) - lambda density)``, one per average.

    Raises ``InputError`` naming lambda when a payoff entry overflows.
    """

    try:
        # an overflowing entry is rejected by the operator's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            shift = lam * density
            return tuple(
                HermitianOperator._exact((float(r + 1) * (s_r - shift)).blocks)
                for r, s_r in enumerate(seq)
            )
    except InputError as exc:
        raise InputError(
            f"threshold lambda {lam:.6g} overflows the payoffs "
            "(r+1)(S_r(a) - lambda rho)"
        ) from exc


def _validate_problem(
    a: LOneElement, lam: float, n: int, algebra: Algebra, map_algebra: Algebra
) -> None:
    if not math.isfinite(lam) or lam <= 0.0:
        raise InputError(f"threshold lambda must be positive, got {lam}")
    if n < 0:
        raise InputError(f"order must be >= 0, got {n}")
    algebra.check_member(a.rep)
    if map_algebra.signature != algebra.signature:
        raise InputError("the map and the element live on different algebras")
    if not isinstance(a.rep, HermitianOperator):
        raise InputError("the averaged element must be self-adjoint")
    lo = min_eigenvalue(a.rep)
    if lo < -PSD_TOL * max(1.0, op_norm(a.rep)):
        raise InputError(f"the averaged element must be positive, min eig {lo:.3e}")


def _state_problem(
    a: LOneElement, lam: float, n: int, state: State, ext: ExtendedMap
) -> tuple[list[BlockMatrix], tuple[HermitianOperator, ...]]:
    """The validated averages S_0(a), ..., S_n(a) and their payoffs."""

    _validate_problem(a, lam, n, state.algebra, ext.state.algebra)
    seq = cesaro_reps(ext.l1_action, a.rep, n)
    return seq, _payoffs(seq, lam, state.rho)


def objective_g(
    point: KPoint,
    a: LOneElement,
    lam: float,
    state: State,
    ext: ExtendedMap,
) -> float:
    """Value of g at a feasible point, recomputed from scratch."""

    _, blocks = _state_problem(a, lam, point.order, state, ext)
    for x in point.xs:
        state.algebra.check_member(x)
    return _point_objective(blocks, list(point.xs))


def solve_maximizer(
    a: LOneElement,
    lam: float,
    n: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
    warm: KPoint | None = None,
) -> MaximizerSolution:
    """Maximize g over K by monotone closed-form ascent with a dual bound.

    The returned point is feasible to roundoff, the objective is
    nondecreasing along the ascent, and ``objective <= dual_bound`` up to
    the dual witness's own eigenvalue accuracy.  ``stalled`` flags runs
    that exhausted ``opts.max_sweeps`` while the duality gap stayed above
    ``STALL_GAP`` times the payoff scale.  A solve is the ascent until an
    objective gain falls below ``TOL_OBJ`` relative, then at most 30
    sweeps to a literal fixed point of the block update.
    """

    _, blocks = _state_problem(a, lam, n, state, ext)
    return _solve_from_blocks(state.algebra, blocks, opts, warm)


def _spectral_positive_part(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    # stacked positive parts from a stacked decomposition, as positive_part builds them
    return _sym((u * np.maximum(w, 0.0)[:, None, :]) @ u.conj().swapaxes(-1, -2))


def _slices(stack: np.ndarray) -> list[slice]:
    """Slices of a stack of about ``STACK_SLICE_BYTES`` each.

    Batching pays for small matrices, where call overhead dominates; for
    large ones it saves nothing, so slicing keeps the temporaries of a
    batched call near that size without costing the small case anything.
    """

    step = max(1, STACK_SLICE_BYTES // stack[0].nbytes)
    return [slice(i, i + step) for i in range(0, len(stack), step)]


def _payoff_summary(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per payoff of one block: largest eigenvalue and Tr (B_r)_+."""

    tops, masses = [], []
    for part in _slices(stack):
        w, u = eigh_stack(stack[part])
        tops.append(w[:, -1])
        masses.append(np.trace(_spectral_positive_part(w, u), axis1=1, axis2=2).real)
    return np.concatenate(tops), np.concatenate(masses)


def _witness_spectrum(
    z: list[np.ndarray], stacks: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Least and largest eigenvalue of each of Z, Z - B_0, ..., Z - B_{m-1}.

    Each operator's extremes are taken over all its blocks; every block
    decomposes [Z; Z - B_0; ...] in checked batched calls.
    """

    lows, highs = [], []
    for zc, stack in zip(z, stacks):
        witness = np.empty((len(stack) + 1,) + zc.shape, dtype=np.complex128)
        witness[0] = zc
        np.subtract(zc, stack, out=witness[1:])
        w = np.concatenate([eigh_stack(witness[part])[0] for part in _slices(witness)])
        lows.append(w[:, 0])
        highs.append(w[:, -1])
    return np.min(lows, axis=0), np.max(highs, axis=0)


def dual_upper_bound(blocks_B: tuple[HermitianOperator, ...]) -> float:
    """Least trace among verified dual witnesses Z >= B_r, Z >= 0.

    The candidates fold from zero, ``Z <- Z + (B_r - Z)_+``, in several
    sweep orders: ascending, descending, and by decreasing largest
    eigenvalue and positive mass of ``B_r``.  Each fold is feasible by
    construction and reproduces the pointwise maximum in commuting
    instances; a uniform shrink by the smallest verified slack tightens
    further.  Every candidate is re-verified and any eigenvalue deficit is
    added back, so the returned value is a true bound up to eigensolver
    accuracy.

    Evaluation is stacked: each algebra block holds its payoffs as one
    ``(m, d, d)`` array, every fold step runs for all sweep orders in one
    batched decomposition, and a candidate's witness check decomposes
    ``[Z; Z - B_0; ...; Z - B_{m-1}]`` once per pass, in slices of about
    ``STACK_SLICE_BYTES``.  Acceptance is ``is_psd``'s rule per operator,
    over all blocks of that operator.
    """

    bs = tuple(blocks_B)
    if not bs:
        return 0.0
    m = len(bs)
    dims = bs[0].dims
    total_dim = sum(dims)
    stacks = [np.stack([b.blocks[c] for b in bs]) for c in range(len(dims))]
    tops, masses = zip(*(_payoff_summary(stack) for stack in stacks))
    orders = {tuple(range(m)), tuple(reversed(range(m)))}
    top = np.max(tops, axis=0)
    orders.add(tuple(int(i) for i in np.argsort(-top, kind="stable")))
    mass = sum(masses)
    orders.add(tuple(int(i) for i in np.argsort(-mass, kind="stable")))
    orders = sorted(orders)

    # fold every order at once: step t adds (B_{order[t]} - Z)_+ to each Z
    folds = [np.zeros((len(orders), d, d), dtype=np.complex128) for d in dims]
    for t in range(m):
        idx = [order[t] for order in orders]
        for c, stack in enumerate(stacks):
            w, u = eigh_stack(stack[idx] - folds[c])
            folds[c] = folds[c] + _spectral_positive_part(w, u)
    candidates = [[fc[k] for fc in folds] for k in range(len(orders))]

    def witness_value(z: list[np.ndarray], lo: np.ndarray) -> float:
        # Tr(Z) plus the eigenvalue deficit, spread over the whole dimension
        deficit = max(0.0, float(np.max(-lo)))
        return float(sum(np.trace(zc).real for zc in z)) + deficit * total_dim

    best = math.inf
    fallback = None
    for z in candidates:
        lo, hi = _witness_spectrum(z, stacks)
        if fallback is None:
            fallback = witness_value(z, lo)
        slack = float(np.min(lo))
        if slack > 0.0:
            z = [zc - slack * np.eye(zc.shape[0], dtype=np.complex128) for zc in z]
            lo, hi = _witness_spectrum(z, stacks)
        scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        if np.all(lo >= -PSD_TOL * scale):
            best = min(best, witness_value(z, lo))
    # no candidate verified: the first fold plus its deficit is still a bound
    return float(best if math.isfinite(best) else fallback)


def extract_projection(
    solution: MaximizerSolution,
    eps_kernel: float | None = None,
    strict: bool = False,
) -> HermitianOperator:
    """Support projection of z = 1 - sum_r x_r above the kernel cut.

    Verifies the exchange identity ``(1 - e) z = 0`` within ten times the
    cut width; a larger defect means the coordinates left K and the
    extraction is meaningless, so it raises ``NonConvergence``.
    """

    one = HermitianOperator.identity(solution.point.xs[0].dims)
    z = one - solution.point.total()
    eps = _resolve_eps(z, eps_kernel)
    e = spectral_projection(z, (eps, math.inf), eps_kernel=eps, strict=strict)
    residual = op_norm((one - e) @ z)
    if residual > PROOF_IDENTITY_FACTOR * eps:
        raise NonConvergence(
            f"support extraction left a residual {residual:.3e} "
            f"above {PROOF_IDENTITY_FACTOR * eps:.3e}"
        )
    return e


def _residual_tol(a: LOneElement, lam: float) -> float:
    return RESIDUAL_RTOL * max(1.0, a.trace_norm(), lam)


def _domination_slacks(
    e: HermitianOperator, ceiling: HermitianOperator, seq: list[BlockMatrix], prefix: str
) -> dict[str, float]:
    """``prefix + str(r)``: least eigenvalue of ``e (ceiling - S_r(a)) e``."""

    return {
        f"{prefix}{r}": min_eigenvalue(
            compress(e, HermitianOperator._exact((ceiling - s_r).blocks))
        )
        for r, s_r in enumerate(seq)
    }


def pointwise_certificate(
    a: LOneElement,
    lam: float,
    n: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
) -> Certificate:
    """Projection e_n with the order-n domination and mass inequalities.

    Residuals: ``pointwise_r`` is the least eigenvalue of
    ``e_n (lambda rho - S_r(a)) e_n`` for each r <= n, and
    ``mass_2_over_lambda`` is ``(2/lambda) Tr(a) - Tr(rho (1 - e_n))``.
    The sharper one-over-lambda mass slack is informational only.
    """

    seq, blocks = _state_problem(a, lam, n, state, ext)
    if tol is None:
        tol = _residual_tol(a, lam)
    sol = _solve_from_blocks(state.algebra, blocks, opts, None)
    e = extract_projection(sol, opts.eps_kernel, opts.strict_cuts)
    one = state.algebra.identity()
    residuals = _domination_slacks(e, lam * state.rho, seq, "pointwise_r")
    mass = (state.rho @ (one - e)).real_trace()
    residuals["mass_2_over_lambda"] = (2.0 / lam) * a.integral() - mass
    info = {
        "mass_1_over_lambda": (1.0 / lam) * a.integral() - mass,
        "exceptional_mass": mass,
        "objective": sol.objective,
        "dual_bound": sol.dual_bound,
        "gap": sol.gap,
        "sweeps": float(sol.sweeps),
        "stalled": float(sol.stalled),
    }
    z = one - sol.point.total()
    passed = all(v >= -tol for v in residuals.values())
    return Certificate(
        projection=e,
        lam=lam,
        kind="pointwise",
        order=n,
        residuals=residuals,
        passed=passed,
        tolerances={
            "residual": tol,
            "eps_kernel": _resolve_eps(z, opts.eps_kernel),
        },
        info=info,
    )


def _cluster_tail(
    es: list[HermitianOperator], cluster_tol: float
) -> tuple[list[int], np.ndarray]:
    """Indices of the largest op-norm cluster (latest on ties) and distances."""

    k = len(es)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dist[i, j] = dist[j, i] = op_norm(es[i] - es[j])
    best: list[int] = []
    for i in range(k):
        members = [j for j in range(k) if dist[i, j] <= cluster_tol]
        if len(members) >= len(best):
            best = members
    return best, dist


def _limit_cut(
    a: LOneElement,
    lam: float,
    horizon: int,
    algebra: Algebra,
    density: HermitianOperator,
    action: PositiveMapModel,
    opts: SolveOptions,
) -> tuple[
    list[BlockMatrix], HermitianOperator, HermitianOperator, float, LimitDiagnostics
]:
    """The limit construction the uniform and tracial certificates share.

    Solves the orders n = 1..horizon with warm starts, extracts their
    support projections, averages the largest op-norm cluster into h and
    cuts h above 1/2 (under ``opts.strict_cuts`` an eigenvalue of h at
    the cut raises ``AmbiguousSpectralCut``).  Returns the averages
    S_0(a), ..., S_c(a) up to the check horizon c, the order-horizon
    projection, the cut projection e, the cut width, and diagnostics that
    carry h and the inverse cut.  Raises ``NoStableLimit``, carrying
    diagnostics, when no cluster reaches ``opts.window`` members.
    """

    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    check_horizon = (
        4 * horizon if opts.check_horizon is None else int(opts.check_horizon)
    )
    if check_horizon < horizon:
        raise InputError("check horizon must cover the solve horizon")
    seq = cesaro_reps(action, a.rep, check_horizon)
    payoffs = _payoffs(seq[: horizon + 1], lam, density)

    es: list[HermitianOperator] = []
    warm: KPoint | None = None
    stalled_solves = 0
    for n in range(1, horizon + 1):
        sol = _solve_from_blocks(algebra, payoffs[: n + 1], opts, warm)
        stalled_solves += int(sol.stalled)
        es.append(extract_projection(sol, opts.eps_kernel, opts.strict_cuts))
        warm = KPoint(sol.point.xs + (algebra.zeros(),))

    members, dist = _cluster_tail(es, opts.cluster_tol)
    h = HermitianOperator._exact(
        [
            np.mean([es[i].blocks[c] for i in members], axis=0)
            for c in range(len(algebra.signature))
        ]
    )
    diag = LimitDiagnostics(
        distances=tuple(float(dist[members[-1], j]) for j in range(len(es))),
        cluster=tuple(i + 1 for i in members),
        window=opts.window,
        cluster_tol=opts.cluster_tol,
        stalled_solves=stalled_solves,
        h=h,
    )
    if len(members) < opts.window:
        raise NoStableLimit(
            f"largest projection cluster has {len(members)} members, "
            f"needs {opts.window}",
            diagnostics=diag,
        )

    eps = _resolve_eps(h, opts.eps_kernel)
    e = spectral_projection(h, (0.5, 1.0), eps_kernel=eps, strict=opts.strict_cuts)
    # h inverted on the range of e (same interval, same cached eigenbasis),
    # so ginv h = e holds to roundoff and ||ginv|| <= 1 / (1/2 + eps)
    ginv = apply_spectral(
        h, lambda w: np.where((w > 0.5 + eps) & (w <= 1.0 + eps), 1.0 / w, 0.0)
    )
    diag = replace(diag, inverse_cut=ginv, inverse_cut_norm=op_norm(ginv))
    return seq, es[-1], e, eps, diag


def uniform_projection(
    a: LOneElement,
    lam: float,
    horizon: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
) -> tuple[Certificate, LimitDiagnostics]:
    """One projection controlling every average up to the check horizon.

    Runs the order-n construction for n = 1..horizon with warm starts,
    averages the largest op-norm cluster of the resulting projections
    into h, and cuts h above 1/2.  Residuals: ``uniform_r`` is
    ``4 lambda - Tr(e S_r(a) e)`` for r up to ``opts.check_horizon``
    (default four times the horizon), ``mass_2_over_lambda`` as in the
    pointwise certificate, plus the inverse-cut identities.  Raises
    ``NoStableLimit``, carrying diagnostics, when no cluster reaches
    ``opts.window`` members.
    """

    _validate_problem(a, lam, horizon, state.algebra, ext.state.algebra)
    if tol is None:
        tol = _residual_tol(a, lam)
    seq, _, e, eps, diag = _limit_cut(
        a, lam, horizon, state.algebra, state.rho, ext.l1_action, opts
    )
    h, ginv = diag.h, diag.inverse_cut
    one = state.algebra.identity()

    residuals: dict[str, float] = {}
    for r, s_r in enumerate(seq):
        residuals[f"uniform_r{r}"] = 4.0 * lam - (e @ s_r @ e).real_trace()
    mass = (state.rho @ (one - e)).real_trace()
    residuals["mass_2_over_lambda"] = (2.0 / lam) * a.integral() - mass
    residuals["h_range_low"] = min_eigenvalue(h)
    residuals["h_range_high"] = 1.0 - max_eigenvalue(h) + eps
    residuals["inverse_cut_norm"] = 2.0 - diag.inverse_cut_norm
    residuals["inverse_cut_identity"] = -op_norm(
        HermitianOperator._exact((ginv @ h).blocks) - e
    )
    cert = Certificate(
        projection=e,
        lam=lam,
        kind="uniform",
        order=horizon,
        residuals=residuals,
        passed=all(v >= -tol for v in residuals.values()),
        tolerances={"residual": tol, "eps_kernel": eps},
        info={
            "exceptional_mass": mass,
            "cluster_size": float(len(diag.cluster)),
            "check_horizon": float(len(seq) - 1),
            "stalled_solves": float(diag.stalled_solves),
        },
    )
    return cert, diag


def yeadon_tracial(
    a: LOneElement,
    lam: float,
    horizon: int,
    algebra: Algebra,
    weight: Weight,
    T: PositiveMapModel,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
) -> Certificate:
    """Tracial-weight certificate: operator domination, not just traces.

    Requires the tracial weight; the density is the identity, the
    integral is the plain trace, and the L1 action coincides with the
    map itself.  The projection comes from the same limit construction
    as ``uniform_projection``.  Residuals: ``pointwise_r`` is the least
    eigenvalue of ``e_H (lambda - S_r(a)) e_H`` for r <= horizon,
    ``uniform_r`` the least eigenvalue of ``e (2 lambda - S_r(a)) e`` up
    to the check horizon, and both mass slacks use ``Tr(1 - e)``.
    """

    if not weight.tracial:
        raise NotTracial("the tracial certificate needs the tracial weight")
    if weight.algebra.signature != algebra.signature:
        raise InputError("weight and algebra disagree")
    _validate_problem(a, lam, horizon, algebra, T.algebra)
    if tol is None:
        tol = _residual_tol(a, lam)

    one = algebra.identity()
    # the absorption conditions for the trace, as extend_l1 checks them for a state
    report = _condition_report(T, one, DEFAULT_SAMPLES, DEFAULT_CONDITION_TOL)
    failures = []
    if not report.contraction_ok:
        failures.append(f"contraction defect {report.contraction_defect:.3e}")
    if not report.trace_decrease_ok:
        failures.append(f"trace increase {report.trace_decrease_defect:.3e}")
    if not report.positivity_ok:
        failures.append(f"sampled positivity defect {report.positivity_worst:.3e}")
    if failures:
        raise ConditionsNotMet("; ".join(failures))

    seq, e_last, e, eps, diag = _limit_cut(a, lam, horizon, algebra, one, T, opts)

    residuals = _domination_slacks(e_last, lam * one, seq[: horizon + 1], "pointwise_r")
    residuals.update(_domination_slacks(e, (2.0 * lam) * one, seq, "uniform_r"))
    trace_a = a.integral()
    residuals["pointwise_mass"] = (2.0 / lam) * trace_a - (
        one - e_last
    ).real_trace()
    residuals["mass_2_over_lambda"] = (2.0 / lam) * trace_a - (
        one - e
    ).real_trace()
    residuals["inverse_cut_norm"] = 2.0 - diag.inverse_cut_norm
    return Certificate(
        projection=e,
        lam=lam,
        kind="tracial",
        order=horizon,
        residuals=residuals,
        passed=all(v >= -tol for v in residuals.values()),
        tolerances={"residual": tol, "eps_kernel": eps},
        info={
            "cluster_size": float(len(diag.cluster)),
            "check_horizon": float(len(seq) - 1),
            "stalled_solves": float(diag.stalled_solves),
        },
    )


# -- predicates ----------------------------------------------------------------


def _check_projection(e: HermitianOperator, tol: float = 1e-9) -> None:
    defect = op_norm(HermitianOperator._exact((e @ e).blocks) - e)
    if defect > tol:
        raise InputError(f"not a projection: idempotency defect {defect:.3e}")


def _weak_type_verdict(
    e: HermitianOperator,
    x: LOneElement | HermitianOperator,
    lam: float,
    c: float,
    p: float,
    state: State,
    ext: ExtendedMap,
    horizon: int,
    tol: float | None,
    operator_bound: bool,
) -> bool:
    """The mass condition, then a bound on every compressed average.

    ``operator_bound`` asks for ``e S_n(x) e <= lambda 1`` as operators;
    otherwise the p-norm of ``e S_n(x) e`` must stay below lambda.
    """

    if not math.isfinite(lam) or lam <= 0.0:
        raise InputError(f"threshold lambda must be positive, got {lam}")
    if c <= 0.0:
        raise InputError(f"constant c must be positive, got {c}")
    if horizon < 0:
        raise InputError(f"horizon must be >= 0, got {horizon}")
    state.algebra.check_member(e)
    _check_projection(e)
    def norm(y: HermitianOperator) -> float:
        # trace-scale Schatten norm for L1 inputs, state-weighted otherwise
        if isinstance(x, LOneElement):
            return schatten_norm(y, p)
        return kosaki_norm(y, p, state)

    norm_x = norm(x.rep if isinstance(x, LOneElement) else x)
    if tol is None:
        tol = RESIDUAL_RTOL * max(1.0, lam, norm_x)
    one = state.algebra.identity()
    mass = (state.rho @ (one - e)).real_trace()
    if mass > (c * norm_x / lam) ** p + tol:
        return False
    if isinstance(x, LOneElement):
        averages = cesaro_reps(ext.l1_action, x.rep, horizon)
    else:
        averages = _averages(lambda y: ext.lp_apply(y, p), x, horizon)
    for rep in averages:
        comp = compress(e, HermitianOperator._exact(rep.blocks))
        if operator_bound:
            if min_eigenvalue((lam * one) - comp) < -tol:
                return False
        elif norm(comp) > lam + tol:
            return False
    return True


def weak_type_predicate(
    e: HermitianOperator,
    x: LOneElement | HermitianOperator,
    lam: float,
    c: float,
    p: float,
    state: State,
    ext: ExtendedMap,
    horizon: int,
    tol: float | None = None,
) -> bool:
    """Literal weak-type (p, p) verdict for one projection and element.

    True iff ``phi(1 - e) <= (c ||x||_p / lambda)^p`` and, for every
    n <= horizon, ``e S_n(x) e <= lambda 1`` as operators.  L1 inputs
    average under the L1 action and use the trace norm scale; algebra
    inputs average under the interpolated action and use the
    state-weighted p-norm.
    """

    return _weak_type_verdict(e, x, lam, c, p, state, ext, horizon, tol, True)


def pre_weak_type_predicate(
    e: HermitianOperator,
    x: LOneElement | HermitianOperator,
    lam: float,
    c: float,
    p: float,
    state: State,
    ext: ExtendedMap,
    horizon: int,
    tol: float | None = None,
) -> bool:
    """Weaker verdict: the compressed averages are only norm-bounded.

    Same mass condition as the weak-type predicate, but the operator
    domination is replaced by ``||e S_n(x) e||_p <= lambda`` (trace-scale
    Schatten norm for L1 inputs, state-weighted norm for algebra inputs).
    """

    return _weak_type_verdict(e, x, lam, c, p, state, ext, horizon, tol, False)


def type_infinity_check(
    T: PositiveMapModel, samples: int = 12, horizon: int = 20
) -> bool:
    """Uniform-norm contraction of all averages on sampled positives.

    Checks ``||S_r(x)|| <= ||x|| + 1e-9`` for the identity and for
    seeded random positive elements, r up to the horizon.
    """

    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    algebra = T.algebra
    rng = np.random.default_rng(SAMPLER_SEED)
    tests = [algebra.identity()]
    for _ in range(samples):
        blocks = []
        for d in algebra.signature:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(g @ g.conj().T)
        tests.append(HermitianOperator._exact(blocks))
    for x in tests:
        bound = op_norm(x) + 1e-9
        averages = islice(_averages(T.apply, x, horizon), 1, None)
        if any(op_norm(s_r) > bound for s_r in averages):
            return False
    return True


# -- commuting reference -------------------------------------------------------


@dataclass(frozen=True)
class CommutativeReference:
    """Scalar-recursion answer sheet for diagonal instances."""

    optimum: float
    exceptional: tuple[int, ...]
    mass: float
    indicator: np.ndarray
    averages: tuple[np.ndarray, ...]


def commutative_oracle(
    a_diag: np.ndarray,
    rho_diag: np.ndarray,
    P: np.ndarray | None,
    lam: float,
    n: int,
) -> CommutativeReference:
    """Classical maximal-set computation by plain scalar loops.

    The action is ``(T1 t)_i = rho_i sum_j P_ij t_j / rho_j`` (identity
    when P is None).  The exceptional set collects coordinates whose
    running maximum of averages strictly exceeds ``lam * rho_i``; the
    optimum is ``sum_i max(0, max_r (r+1)(S_r(a)_i - lam rho_i))``.
    """

    a = np.asarray(a_diag, dtype=np.float64)
    rho = np.asarray(rho_diag, dtype=np.float64)
    if a.ndim != 1 or rho.ndim != 1 or a.shape != rho.shape:
        raise InputError("diagonal data must be matching vectors")
    if np.any(a < -1e-12):
        raise InputError("diagonal element must be nonnegative")
    if np.any(rho <= 0.0):
        raise InputError("diagonal density must be positive")
    if abs(float(rho.sum()) - 1.0) > 1e-9:
        raise InputError("diagonal density must have unit mass")
    if not math.isfinite(lam) or lam <= 0.0:
        raise InputError(f"threshold lambda must be positive, got {lam}")
    if n < 0:
        raise InputError(f"order must be >= 0, got {n}")
    if P is not None:
        P = np.asarray(P, dtype=np.float64)
        if P.shape != (a.size, a.size):
            raise NotStochastic("kernel shape does not match the diagonal")
        if np.any(P < -1e-14):
            raise NotStochastic("kernel has negative entries")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-10:
            raise NotStochastic("kernel rows must sum to one")

    averages = [a.copy()]
    t = a.copy()
    acc = a.copy()
    for r in range(1, n + 1):
        if P is not None:
            t = rho * (P @ (t / rho))
        acc = acc + t
        averages.append(acc / (r + 1))

    d = a.size
    optimum = 0.0
    exceptional = []
    for i in range(d):
        best = 0.0
        exceed = False
        for r in range(n + 1):
            gain = (r + 1) * (averages[r][i] - lam * rho[i])
            if gain > best:
                best = gain
            if averages[r][i] > lam * rho[i]:
                exceed = True
        optimum += best
        if exceed:
            exceptional.append(i)
    indicator = np.ones(d, dtype=np.float64)
    indicator[exceptional] = 0.0
    mass = float(rho[exceptional].sum()) if exceptional else 0.0
    return CommutativeReference(
        optimum=float(optimum),
        exceptional=tuple(exceptional),
        mass=mass,
        indicator=indicator,
        averages=tuple(averages),
    )


def diagonal_instance(
    a_diag: np.ndarray,
    rho_diag: np.ndarray,
    P: np.ndarray | None = None,
) -> tuple[Algebra, State, LOneElement, ExtendedMap]:
    """Lift a scalar instance to one-dimensional blocks with a kernel map.

    The kernel needs ``rho P <= rho`` coordinatewise (stationarity, for a
    stochastic kernel and a probability density) so the lifted map
    satisfies the absorption condition; the construction fails loudly
    otherwise.  The lifted L1 action matches the oracle's scalar
    recursion.
    """

    from .algebra import make_state
    from .dynamics import extend_l1

    a = np.asarray(a_diag, dtype=np.float64)
    rho = np.asarray(rho_diag, dtype=np.float64)
    if a.ndim != 1 or rho.ndim != 1 or a.shape != rho.shape:
        raise InputError("diagonal data must be matching vectors")
    d = a.size
    algebra = Algebra((1,) * d)
    state = make_state(
        algebra, HermitianOperator.from_diagonal(algebra.signature, rho)
    )
    a_op = HermitianOperator.from_diagonal(algebra.signature, a)
    if P is None:
        model = PositiveMapModel.identity(algebra)
    else:
        P = np.asarray(P, dtype=np.float64)
        ops = []
        weights = []
        for i in range(d):
            for j in range(d):
                if P[i, j] <= 0.0:
                    continue
                v = np.zeros((d, d), dtype=np.complex128)
                v[j, i] = 1.0
                ops.append(v)
                weights.append(float(P[i, j]))
        model = PositiveMapModel.from_kraus(algebra, ops, weights)
    ext = extend_l1(model, state)
    return algebra, state, LOneElement(a_op), ext
