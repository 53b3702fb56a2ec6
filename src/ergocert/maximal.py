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
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import islice

import numpy as np

from .algebra import Algebra, LOneElement, State, Weight, kosaki_norm
from .dynamics import (
    DEFAULT_CONDITION_TOL,
    DEFAULT_SAMPLES,
    ExtendedMap,
    Pedigree,
    PositiveMapModel,
    _averages,
    _condition_report,
    _is_index,
    _require_conditions,
)
from .errors import (
    InputError,
    NonConvergence,
    NoStableLimit,
    NotStochastic,
    NotTracial,
)
from .linalg import (
    PSD_TOL,
    HermitianOperator,
    _cut,
    _eigh,
    _eigvalsh,
    _form,
    _projector,
    _sym,
    compress,
    eigh,
    eigh_stack,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    schatten_norm,
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


class _ReadsDualBound:
    """``dual_bound`` and ``gap`` of order ``order``'s solve, from its ``_layout``."""

    @property
    def dual_bound(self) -> float:
        return self._layout.bound(self.order + 1)

    @property
    def gap(self) -> float:
        return max(0.0, self.dual_bound - self.objective)


@dataclass(frozen=True, eq=False)
class MaximizerSolution(_ReadsDualBound):
    """Primal point, value, dual bound, and bookkeeping of one solve.

    ``xs[c][r]`` is block c of coordinate x_r, in the solver's own arrays,
    each coordinate symmetrized once after the ascent.  ``point`` is the
    same point as a ``KPoint``, built the first time it is read.
    ``dual_bound`` is ``layout.bound(n + 1)`` of the layout the solve read
    (``PayoffLayout.bound``): ``dual_upper_bound`` of the payoffs
    B_0, ..., B_n, computed the first time any reader asks the layout for
    it and kept there; ``gap`` is ``max(0, dual_bound - objective)``.  The
    solution keeps its layout for that read.  A solve whose ascent ran out
    of sweeps has computed the bound already, because ``stalled`` is
    decided by the gap.  ``sweeps`` is the most ascent sweeps of any
    algebra block plus the most polish sweeps; a block already at a fixed
    point is not swept again, and counts the 1 sweep its polish would
    take.  A polish runs toward a fixed point for at most 30 sweeps and
    can stop on that budget short of one; nothing here records which.
    """

    xs: tuple[tuple[np.ndarray, ...], ...]
    objective: float
    sweeps: int
    stalled: bool
    _layout: PayoffLayout = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.xs[0]) - 1

    @cached_property
    def point(self) -> KPoint:
        return KPoint(tuple(HermitianOperator._exact(x) for x in zip(*self.xs)))


@dataclass(frozen=True, eq=False)
class Certificate:
    """Projection plus signed residual slacks; passing means all >= -tol.

    ``passed`` is derived from ``residuals`` and ``tolerances["residual"]``
    (the tol), so a certificate cannot disagree with its own slacks.
    """

    projection: HermitianOperator
    lam: float
    kind: str
    order: int
    residuals: dict[str, float]
    tolerances: dict[str, float]
    info: dict[str, float]

    @property
    def passed(self) -> bool:
        tol = self.tolerances["residual"]
        return all(v >= -tol for v in self.residuals.values())

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


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # noise floor only; no inversion happens anywhere in the ascent
    w, u = _eigh(_sym(m))
    w = np.clip(w, 0.0, None)
    if w.size and w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return (u * np.sqrt(w)) @ u.conj().T


def _pair(b: np.ndarray, x: np.ndarray) -> float:
    # Tr(b x) for hermitian factors
    return float(np.vdot(b, x).real)


def _cut_gram(chalf: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    # v v* with v = chalf @ (the columns of u whose eigenvalue in w is > 0), None
    # when there are none; w is ascending, so w[-1] decides
    if not w[-1] > 0.0:
        return None
    v = chalf @ u[:, w > 0.0]
    return v @ v.conj().T


def _block_update(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact argmax of Tr(b x) over 0 <= x <= c (c positive semidefinite)."""

    chalf = _psd_sqrt(c)
    x = _cut_gram(chalf, *_eigh(_sym(chalf @ b @ chalf)))
    return np.zeros_like(b) if x is None else x


def _swap_pass(
    bs: np.ndarray, xs: list[np.ndarray], screen: np.ndarray
) -> bool:
    """Move mass of x_r into coordinates with dominating payoff, in place.

    The transfer D = X^{1/2} P X^{1/2}, with P the positive spectral
    projection of X^{1/2} (B_s - B_r) X^{1/2} and X = x_r, keeps
    x_r + x_s fixed, keeps both coordinates positive (Gram forms), and
    raises the objective by the sum of the cut's positive eigenvalues.

    For each r the candidates s, those whose screen entry passes
    ``SWAP_SCREEN_TOL``, are taken in order and decomposed in stacked
    ``_eigh`` calls of at most one ``_slices`` part each.  A transfer
    changes x_r, so the candidates after it are decomposed again with the
    new x_r; each candidate thus sees the bits a one-at-a-time pass gives it.
    """

    changed = False
    step = _step(bs)
    for r in range(len(bs)):
        todo = np.flatnonzero(screen[r] > SWAP_SCREEN_TOL).tolist()
        xhalf = None
        while todo and float(xs[r].trace().real) > SWAP_SCREEN_TOL:
            batch = todo[:step]
            if xhalf is None:
                xhalf = _psd_sqrt(xs[r])
            ws, us = _eigh(_sym(xhalf @ (bs[batch] - bs[r]) @ xhalf))
            todo = todo[step:]
            for i, (s, w, u) in enumerate(zip(batch, ws, us)):
                mask = w > 1e-15 * max(1.0, float(abs(w[-1])))
                if not mask.any():
                    continue
                vpos = xhalf @ u[:, mask]
                vneg = xhalf @ u[:, ~mask]
                xs[r] = vneg @ vneg.conj().T
                xs[s] = _sym(xs[s] + vpos @ vpos.conj().T)
                xhalf = None
                changed = True
                todo = batch[i + 1 :] + todo
                break
    return changed


def _grow_screen(stack: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The swap screen of ``stack`` from the screen ``old`` of its first payoffs.

    screen[r, s] is the largest eigenvalue of B_s - B_r (0 on the
    diagonal).  Only the entries of the new rows and columns are computed:
    all of them together, in ``_eigvalsh`` calls of one ``_slices`` part
    each.
    """

    k, m = len(old), len(stack)
    screen = np.zeros((m, m))
    screen[:k, :k] = old
    # an old row lacks the new columns only; a new row lacks every column
    new = np.ones((m, m), dtype=bool)
    new[:k, :k] = False
    np.fill_diagonal(new, False)
    rows, cols = np.nonzero(new)
    step = _step(stack)
    for i in range(0, len(rows), step):
        r, s = rows[i : i + step], cols[i : i + step]
        screen[r, s] = _eigvalsh(_sym(stack[s] - stack[r]))[:, -1]
    return screen


def _ascend_block(
    bs: np.ndarray,
    xs: list[np.ndarray],
    budget: int,
    to_fixed_point: bool,
    screen: np.ndarray,
) -> tuple[int, str]:
    """Cyclic ascent on one algebra block; rebinds xs's entries, returns (sweeps, stop).

    ``sweeps`` counts the sweeps run: a block update per coordinate, then
    the swap pass.  ``stop`` is ``"fixed"`` when the last sweep changed
    nothing, ``"flat"`` on the ``TOL_OBJ`` stop (never with
    ``to_fixed_point``) and ``"budget"`` when the sweeps ran out.  ``bs``
    is the block's ``(m, d, d)`` payoff stack and ``screen`` its swap
    screen (``PayoffLayout.screen``).  Swaps run when there are at least
    two coordinates.

    A coordinate that is exactly zero has the cap c = 1 - sum_r x_r, the
    same for every zero coordinate while the sum is unchanged.  So the
    zero coordinates not yet visited in a sweep are screened together: one
    ``_psd_sqrt(c)`` and one stacked ``_eigh`` of their ``c^{1/2} B_r c^{1/2}``,
    at most one ``_slices`` part of them at a time.  One whose cut has no
    eigenvalue above 0 stays zero, as its block update would leave it; one
    that moves is updated from its row of the stack.  Each gets the bits
    its own block update gives it, and any change to the sum drops the
    screen.
    """

    m = len(bs)
    d = bs[0].shape[0]
    eye = np.eye(d, dtype=np.complex128)
    swaps = m > 1
    step = _step(bs)
    # the objective feeds only the TOL_OBJ stop, which a polish does not take
    obj = None if to_fixed_point else sum(_pair(b, x) for b, x in zip(bs, xs))
    sweeps = 0
    while sweeps < budget:
        sweeps += 1
        changed = False
        total = sum(xs)
        zero = [not x.any() for x in xs]
        # zero coordinate -> (c^{1/2}, eigenvalues, vectors) of its cut, while total holds
        screened = {}
        for r in reversed(range(m)):
            if not zero[r]:
                xnew = _block_update(bs[r], eye - (total - xs[r]))
            else:
                if r not in screened:
                    rows = [s for s in reversed(range(r + 1)) if zero[s]][:step]
                    chalf = _psd_sqrt(eye - total)
                    ws, us = _eigh(_sym(chalf @ bs[rows] @ chalf))
                    screened = {s: (chalf, w, u) for s, w, u in zip(rows, ws, us)}
                xnew = _cut_gram(*screened[r])
                if xnew is None:
                    continue
            if float(np.max(np.abs(xnew - xs[r]))) > 1e-14:
                total = total + (xnew - xs[r])
                xs[r] = xnew
                changed = True
                screened = {}
        if swaps:
            if _swap_pass(bs, xs, screen):
                changed = True
        if not changed:
            return sweeps, "fixed"
        if not to_fixed_point:
            new_obj = sum(_pair(b, x) for b, x in zip(bs, xs))
            if new_obj - obj <= TOL_OBJ * max(1.0, abs(new_obj)):
                return sweeps, "flat"
            obj = new_obj
    return sweeps, "budget"


# -- assembled solver ----------------------------------------------------------


def _stacked(ops) -> list[np.ndarray]:
    # per algebra block, the (m, d, d) stack of the operators' blocks
    return [np.stack(blocks) for blocks in zip(*(op.blocks for op in ops))]


def _point_objective(stacks, xs) -> float:
    # g = sum_r Tr(B_r x_r) from per-block payoffs stacks[c][r] and points
    # xs[c][r], summed over r outside and over blocks inside
    return float(
        sum(
            sum(_pair(stack[r], xc[r]) for stack, xc in zip(stacks, xs))
            for r in range(len(xs[0]))
        )
    )


class PayoffLayout:
    """The payoffs B_0, ..., B_{m-1} of one problem, laid out for the solver.

    Per algebra block it holds the ``(m, d, d)`` stack of the payoffs and
    the swap screen; per payoff, the least and largest eigenvalue (ties
    between blocks going to the first, as in ``_extremes``) and the
    positive mass ``Tr (B_r)_+``, the sum of the positive eigenvalues, over
    all blocks.  The stacks are the one copy of the payoffs kept: the
    constructor and ``extend`` take new payoffs as per-block ``(k, d, d)``
    complex stacks (``_payoff_stacks``; ``_stacked`` turns operators into
    them), append them and decompose each payoff once, in one checked
    ``eigh_stack`` per block; ``screen`` computes the entries of payoffs
    added since its last call.  ``bound(m)`` is the dual bound of the first
    m payoffs, the one kept for every solve, path step and certificate that
    reads it.  Nothing laid out is computed again.
    """

    def __init__(self, stacks: list[np.ndarray] = ()):
        self.stacks: list[np.ndarray] = []
        self.lows = self.tops = self.masses = np.empty(0)
        self._screens: list[np.ndarray] = []
        self._bounds: dict[int, float] = {}
        self.extend(stacks)

    def __len__(self) -> int:
        return len(self.lows)

    def prefix(self, m: int) -> "PayoffLayout":
        """The first m payoffs, as views of the arrays laid out now.

        ``extend`` only appends, so the view holds the bytes this layout
        held when it had m payoffs.  It carries the stacks, the spectra and
        the masses that ``dual_upper_bound`` reads, and no swap screen or
        bound.
        """

        view = object.__new__(PayoffLayout)
        view.stacks = [stack[:m] for stack in self.stacks]
        view.lows, view.tops, view.masses = self.lows[:m], self.tops[:m], self.masses[:m]
        return view

    def extend(self, fresh: list[np.ndarray]) -> None:
        if not len(fresh) or not len(fresh[0]):
            return
        lows, tops, masses = zip(*(_payoff_summary(stack) for stack in fresh))
        if not len(self):
            self._screens = [np.zeros((0, 0)) for _ in fresh]
        # per block, the fresh matrices after those laid out; none yet: fresh itself
        self.stacks = [np.concatenate(pair) for pair in zip(self.stacks, fresh)] or fresh
        low, top = _first_block_wins(zip(lows, tops))
        self.lows = np.concatenate((self.lows, low))
        self.tops = np.concatenate((self.tops, top))
        self.masses = np.concatenate((self.masses, sum(masses)))

    def bound(self, m: int) -> float:
        """``dual_upper_bound`` of the first m payoffs, computed on the first call.

        m is at most ``len(self)``.  ``extend`` only appends, so the value
        stays the bound of those m payoffs however far the layout grows.
        The module-level ``dual_upper_bound`` makes each computation.
        """

        if m not in self._bounds:
            self._bounds[m] = dual_upper_bound(self.prefix(m))
        return self._bounds[m]

    def screen(self, c: int) -> np.ndarray:
        """The swap screen of algebra block ``c`` over all payoffs laid out."""

        if len(self._screens[c]) < len(self):
            self._screens[c] = _grow_screen(self.stacks[c], self._screens[c])
        return self._screens[c]


def _solve_from_blocks(
    algebra: Algebra,
    layout: PayoffLayout,
    opts: SolveOptions,
    warm: list[tuple[np.ndarray, ...]] | None,
) -> MaximizerSolution:
    m = len(layout)
    nblocks = len(algebra.signature)
    scale = max(1.0, float(np.max(np.maximum(np.abs(layout.lows), np.abs(layout.tops)))))
    zeros = [(np.zeros((d, d), dtype=np.complex128),) * m for d in algebra.signature]

    # fast path: when every payoff matrix is <= 0, zero is a maximizer,
    # whatever the warm start
    if np.all(layout.tops <= 0.0):
        return MaximizerSolution(
            xs=tuple(zeros), objective=0.0, sweeps=0, stalled=False, _layout=layout
        )

    # warm[c][r] is block c of x_r; the ascent only rebinds list entries, so
    # warm arrays shared with an earlier solution are never written
    xs_arr = [list(xc) for xc in (zeros if warm is None else warm)]
    stacks = layout.stacks
    screens = [layout.screen(c) for c in range(nblocks)]

    runs = [
        _ascend_block(stacks[c], xs_arr[c], opts.max_sweeps, False, screens[c])
        for c in range(nblocks)
    ]
    total_sweeps = max(sw for sw, _ in runs)
    stalled = any(stop == "budget" for _, stop in runs)
    if not stalled:
        # polish toward a fixed point of the block update, where the pointwise
        # inequality is a first-order condition independent of the gap; the
        # polish can stop on its 30-sweep budget short of one, and no record
        # says so yet.  A "fixed" block is at one: its polish would repeat its
        # last sweep bit for bit and return 1, so that 1 is counted, not run
        total_sweeps += max(
            _ascend_block(stacks[c], xs_arr[c], 30, True, screens[c])[0] if stop == "flat" else 1
            for c, (_, stop) in enumerate(runs)
        )

    xs = tuple(tuple(_sym(x) for x in xc) for xc in xs_arr)
    objective = _point_objective(stacks, xs)
    # only a run out of sweeps is judged by its gap, so only it needs the bound now
    stalled = stalled and max(0.0, layout.bound(m) - objective) > STALL_GAP * scale
    return MaximizerSolution(
        xs=xs, objective=objective, sweeps=total_sweeps, stalled=stalled, _layout=layout
    )


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
) -> list[np.ndarray]:
    """Per algebra block, the payoff stack of the validated S_0(a), ..., S_n(a)."""

    _validate_problem(a, lam, n, state.algebra, ext.state.algebra)
    averages = ProjectionPath(a, lam, state.rho, ext.l1_action).average_stacks(n)
    return _payoff_stacks(lam, state.rho, averages, 0)


def objective_g(
    point: KPoint,
    a: LOneElement,
    lam: float,
    state: State,
    ext: ExtendedMap,
) -> float:
    """Value of g at a feasible point, recomputed from scratch."""

    stacks = _state_problem(a, lam, point.order, state, ext)
    for x in point.xs:
        state.algebra.check_member(x)
    return _point_objective(stacks, _stacked(point.xs))


def solve_maximizer(
    a: LOneElement,
    lam: float,
    n: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
) -> MaximizerSolution:
    """Maximize g over K by monotone closed-form ascent with a dual bound.

    The returned point is feasible to roundoff, the objective is
    nondecreasing along the ascent, and ``objective <= dual_bound`` up to
    the dual witness's own eigenvalue accuracy.  ``stalled`` flags runs
    that exhausted ``opts.max_sweeps`` while the duality gap stayed above
    ``STALL_GAP`` times the payoff scale.  A solve is the ascent of each
    algebra block until a sweep changes nothing or an objective gain falls
    below ``TOL_OBJ`` relative, then, for the blocks that stopped on
    ``TOL_OBJ``, a polish that runs toward a fixed point of the block
    update for at most 30 sweeps and can stop on that budget short of one
    (the solution does not record which); a block whose last sweep changed
    nothing is at a fixed point already and is not swept again, and no
    block is polished when any ran out of sweeps.  ``sweeps`` counts both
    phases (``MaximizerSolution``).  The dual bound of B_0, ..., B_n is
    computed when ``dual_bound`` or ``gap`` is first read, or at once when
    the ascent ran out of sweeps, since ``stalled`` needs the gap; the
    solve's ``PayoffLayout`` keeps it, and the solution keeps that layout.
    The solve starts cold.
    """

    layout = PayoffLayout(_state_problem(a, lam, n, state, ext))
    return _solve_from_blocks(state.algebra, layout, opts, None)


def _spectral_positive_part(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    # stacked positive parts from a stacked decomposition, as positive_part builds them
    return _sym((u * np.maximum(w, 0.0)[:, None, :]) @ u.conj().swapaxes(-1, -2))


def _slices(stack: np.ndarray) -> list[slice]:
    """Slices of a stack of about ``STACK_SLICE_BYTES`` each.

    Batching pays for small matrices, where call overhead dominates; for
    large ones it saves nothing, so slicing keeps the temporaries of a
    batched call near that size without costing the small case anything.
    """

    step = _step(stack)
    return [slice(i, i + step) for i in range(0, len(stack), step)]


def _step(stack: np.ndarray) -> int:
    # the number of the stack's matrices in one _slices part
    return max(1, STACK_SLICE_BYTES // stack[0].nbytes)


def _payoff_summary(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per payoff of one block: least and largest eigenvalue, positive mass."""

    w = np.concatenate([eigh_stack(stack[part])[0] for part in _slices(stack)])
    return w[:, 0], w[:, -1], np.sum(np.maximum(w, 0.0), axis=1)


def _extremes(families) -> tuple[np.ndarray, np.ndarray]:
    """Least and largest eigenvalue of every operator of a family, over its blocks.

    ``families`` yields, per algebra block in order, the parts of the
    family's ``(k, d, d)`` stack in order, as ``_slices`` cuts them.  Each
    part is decomposed in one checked ``eigh_stack`` call, so every matrix
    gets the eigenvalues ``eigh`` gives it alone.  Ties between blocks go
    to the first block, as ``min_eigenvalue`` and ``max_eigenvalue`` take
    them, so a signed zero keeps its sign.  ``_norms`` turns the extremes
    into operator norms.
    """

    return _first_block_wins(
        np.concatenate([eigh_stack(part)[0][:, [0, -1]] for part in parts]).T
        for parts in families
    )


def _first_block_wins(pairs) -> tuple[np.ndarray, np.ndarray]:
    # the least of the lows and the largest of the tops of finite (low, top)
    # arrays given per block, the first block winning ties; the first block
    # replaces the infinities
    lows, tops = np.inf, -np.inf
    for low, top in pairs:
        lows = np.where(low < lows, low, lows)
        tops = np.where(top > tops, top, tops)
    return lows, tops


def _norms(stacks: list[np.ndarray]) -> np.ndarray:
    # op_norm of every operator of a family held as per-block stacks
    low, top = _extremes([stack[part] for part in _slices(stack)] for stack in stacks)
    return np.maximum(np.abs(low), np.abs(top))


def dual_upper_bound(blocks_B: tuple[HermitianOperator, ...] | PayoffLayout) -> float:
    """Least trace among verified dual witnesses Z >= B_r, Z >= 0.

    The candidates fold from zero, ``Z <- Z + (B_r - Z)_+``, in several
    sweep orders: ascending, descending, and by decreasing largest
    eigenvalue and positive mass of ``B_r``.  Each fold is feasible by
    construction and reproduces the pointwise maximum in commuting
    instances.  No fold has slack to shrink: after its last nonzero step
    t, ``Z - B_t`` is the negative part ``(B_t - Z_{t-1})_-``, which
    vanishes on the range of that step, and Z is 0 when no step is
    nonzero, so some ``Z - B_r`` or Z itself is singular.  Every
    candidate is re-verified and any eigenvalue deficit is added back, so
    the returned value is a true bound up to eigensolver accuracy.

    ``blocks_B`` is the payoffs or their ``PayoffLayout``, whose stacks
    and spectra the bound reads.  Evaluation is stacked: each algebra
    block holds its payoffs as one ``(m, d, d)`` array, every fold step
    runs for all sweep orders in one batched decomposition, and a
    candidate's witness check builds ``[Z; Z - B_0; ...; Z - B_{m-1}]``
    one algebra block at a time and reads each operator's least and
    largest eigenvalue over its blocks through ``_extremes``, in slices of
    about ``STACK_SLICE_BYTES``.  Acceptance is ``is_psd``'s rule per
    operator, over all blocks of that operator.
    """

    if isinstance(blocks_B, PayoffLayout):
        layout = blocks_B
    else:
        layout = PayoffLayout(_stacked(blocks_B))
    m = len(layout)
    if not m:
        return 0.0
    stacks = layout.stacks
    dims = [stack.shape[1] for stack in stacks]
    total_dim = sum(dims)
    orders = {tuple(range(m)), tuple(reversed(range(m)))}
    orders.add(tuple(int(i) for i in np.argsort(-layout.tops, kind="stable")))
    orders.add(tuple(int(i) for i in np.argsort(-layout.masses, kind="stable")))
    orders = sorted(orders)

    # fold every order at once: step t adds (B_{order[t]} - Z)_+ to each Z
    folds = [np.zeros((len(orders), d, d), dtype=np.complex128) for d in dims]
    for t in range(m):
        idx = [order[t] for order in orders]
        for c, stack in enumerate(stacks):
            step = _spectral_positive_part(*eigh_stack(stack[idx] - folds[c]))
            folds[c] = folds[c] + step
    candidates = [[fc[k] for fc in folds] for k in range(len(orders))]

    def witness_parts(z: list[np.ndarray]):
        # per block, the parts of the stack [Z; Z - B_0; ...; Z - B_{m-1}],
        # built one block at a time
        for zc, stack in zip(z, stacks):
            witness = np.concatenate((zc[None], stack))
            np.subtract(zc, witness[1:], out=witness[1:])
            yield [witness[part] for part in _slices(witness)]

    def witness_value(z: list[np.ndarray], lo: np.ndarray) -> float:
        # Tr(Z) plus the eigenvalue deficit, spread over the whole dimension
        deficit = max(0.0, float(np.max(-lo)))
        return float(sum(np.trace(zc).real for zc in z)) + deficit * total_dim

    best = math.inf
    fallback = None
    for z in candidates:
        lo, hi = _extremes(witness_parts(z))
        if fallback is None:
            fallback = witness_value(z, lo)
        scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        if np.all(lo >= -PSD_TOL * scale):
            best = min(best, witness_value(z, lo))
    # no candidate verified: the first fold plus its deficit is still a bound
    return float(best if math.isfinite(best) else fallback)


def extract_projection(
    solution: MaximizerSolution,
    eps_kernel: float | None = None,
    strict: bool = False,
) -> tuple[HermitianOperator, float]:
    """Support projection of z = 1 - sum_r x_r above the kernel cut, and the cut width.

    Works per block on the solution's arrays: z is formed as
    ``1 - (x_0 + x_1 + ...)`` in sequence and symmetrized by ``_form``,
    decomposed by the checked ``eigh_stack``, and cut by ``linalg._cut``'s
    support cut: the width eps is ``eps_kernel`` or, when None, ``1e-8 *
    max(1, ||z||)``, and e keeps the eigenvalues of z above ``2 eps``.
    Under ``strict`` an eigenvalue of z in ``(eps, 2 eps]`` raises
    ``AmbiguousSpectralCut``; those up to eps are z's kernel.  e is the one
    operator built.  Verifies the exchange identity ``(1 - e) z = 0`` on
    the independent product, its largest singular value within ten times
    the cut width; a larger defect means the coordinates left K and the
    extraction is meaningless, so it raises ``NonConvergence``.
    """

    zs = [_form(np.eye(len(xc[0])) - sum(xc[1:], xc[0]), True) for xc in solution.xs]
    spectra = [eigh_stack(z[None]) for z in zs]
    eps, masks = _cut([w[0] for w, _ in spectra], None, math.inf, eps_kernel, strict)
    e = HermitianOperator._exact([_projector(u[0], m) for (_, u), m in zip(spectra, masks)])
    products = [_sym(np.eye(len(z)) - p) @ z for p, z in zip(e.blocks, zs)]
    residual = max(float(np.linalg.norm(b, 2)) for b in products)
    if residual > PROOF_IDENTITY_FACTOR * eps:
        raise NonConvergence(
            f"support extraction left a residual {residual:.3e} "
            f"above {PROOF_IDENTITY_FACTOR * eps:.3e}"
        )
    return e, eps


@dataclass(frozen=True, eq=False)
class PathStep(_ReadsDualBound):
    """Order n of a projection path: e_n, its kernel cut width and the solve's numbers.

    ``dual_bound`` and ``gap`` are the solve's: ``dual_bound`` is
    ``bound(n + 1)`` of the path's layout, computed on the first read by
    any step, solve or certificate and kept on the layout (see
    ``MaximizerSolution``); the step does not keep the solve's point.
    """

    projection: HermitianOperator
    eps_kernel: float
    objective: float
    sweeps: int
    stalled: bool
    order: int
    _layout: PayoffLayout = field(repr=False)


class ProjectionPath:
    """The projections e_0, e_1, ... of one problem, each order solved once.

    The problem is (a, lambda, density, action, opts), with payoffs
    ``B_r = (r+1) (S_r(a) - lambda density)`` and S_r the averages under
    ``action``.  Order n is solved the first time it is asked for,
    warm-started from order n-1's point with a zero coordinate appended
    (order 0 starts cold).  Of the solves' points only the latest is kept,
    as the solver's per-block arrays, for the next warm start; no order
    builds a ``KPoint``.  ``payoffs`` is the ``PayoffLayout`` of the
    orders solved so far, extended by one payoff per order; it keeps every
    order's dual bound.  Order n's bound is computed by the first read of
    ``payoffs.bound(n + 1)``, so orders whose bound no record reads (the
    limit orders) never compute one; a solve that ran out of sweeps
    computes it at once.

    The path keeps two stores: the averages S_r(a), once, as per-block
    ``(m, d, d)`` stacks (``average_stacks``), and the payoffs.  The
    averages come from one recursion on arrays (``_averages`` on
    ``action._act``): the path holds S_0(a) from construction, where the
    membership of a is checked once, and joins later averages onto it as
    they are drawn; no operator is built per average or per application.
    It keeps no ceilings.  The a-posteriori checks cut each ceiling
    ``lambda density - S_r(a)`` from the average stacks where they read
    it, with the formula the payoffs are formed by (``_ceiling``), so the
    ceilings come from the averages, not from the payoffs, and the checks
    stay independent of the solve.  Both stores are extended, never
    recomputed, as later orders are asked for.  The certificate functions
    validate the problem and check that a path they are given was built
    for it.
    """

    def __init__(
        self,
        a: LOneElement,
        lam: float,
        density: HermitianOperator,
        action: PositiveMapModel,
        opts: SolveOptions = DEFAULT_OPTIONS,
    ):
        self.a = a
        self.lam = lam
        self.density = density
        self.action = action
        self.opts = opts
        self.steps: list[PathStep] = []
        action.algebra.check_member(a.rep)
        hermitian = isinstance(a.rep, HermitianOperator)
        self._gen = _averages(action._act, [b[None] for b in a.rep.blocks], hermitian, None)
        self._averages = next(self._gen)
        self.payoffs = PayoffLayout()
        self._xs: tuple[tuple[np.ndarray, ...], ...] | None = None

    def average_stacks(self, n: int) -> list[np.ndarray]:
        """Per algebra block, the ``(n+1, d, d)`` stack of S_0(a), ..., S_n(a)."""

        k = len(self._averages[0])
        if k <= n:
            fresh = islice(self._gen, n + 1 - k)
            self._averages = [np.concatenate(c) for c in zip(self._averages, *fresh)]
        return [stack[: n + 1] for stack in self._averages]

    def step(self, n: int) -> PathStep:
        """Order n, after solving the orders below it not solved yet."""

        if n < 0:
            raise InputError(f"order must be >= 0, got {n}")
        algebra = self.action.algebra
        zeros = [(np.zeros((d, d), dtype=np.complex128),) for d in algebra.signature]
        while len(self.steps) <= n:
            k = len(self.payoffs)
            fresh = [stack[k:] for stack in self.average_stacks(len(self.steps))]
            self.payoffs.extend(_payoff_stacks(self.lam, self.density, fresh, k))
            warm = None
            if self._xs is not None:
                warm = [xc + zero for xc, zero in zip(self._xs, zeros)]
            sol = _solve_from_blocks(algebra, self.payoffs, self.opts, warm)
            e, eps = extract_projection(sol, self.opts.eps_kernel, self.opts.strict_cuts)
            self._xs = sol.xs
            self.steps.append(
                PathStep(e, eps, sol.objective, sol.sweeps, sol.stalled, sol.order, self.payoffs)
            )
        return self.steps[n]


def _path_for(
    path: ProjectionPath | None,
    a: LOneElement,
    lam: float,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions,
) -> ProjectionPath:
    """``path`` if it was built for this state-mode problem, a new path when None."""

    density, action = state.rho, ext.l1_action
    if path is None:
        return ProjectionPath(a, lam, density, action, opts)
    # the same action fixes the algebra, so the densities compare entrywise
    if not (
        path.a is a
        and path.lam == lam
        and path.action is action
        and path.opts == opts
        and path.density.allclose(density, atol=0.0)
    ):
        raise InputError("the projection path was built for a different problem")
    return path


def _residual_tol(a: LOneElement, lam: float) -> float:
    return RESIDUAL_RTOL * max(1.0, a.trace_norm(), lam)


def _ceiling(scale: float, d: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # scale d - S_r for each S_r of stack, as the operators form it: the one
    # formula by which the domination slacks and the payoffs form ceilings
    return _sym(_sym(scale * d) - stack)


def _payoff_stacks(
    lam: float, density: HermitianOperator, averages: list[np.ndarray], first: int
) -> list[np.ndarray]:
    """Per block, the stack of payoffs ``(r+1) (S_r - lambda density)``.

    ``averages`` holds the per-block stacks of S_first, S_first+1, ...
    Each payoff is its ceiling (``_ceiling``) negated, times r+1,
    symmetrized.  That gives the operators' bits, signed zeros included,
    except where S_r holds -0.0 over a +0.0 of ``lambda density``: there
    ``S_r - lambda density`` is -0.0 and ``0.0 - C`` is +0.0.  Raises
    ``InputError`` naming lambda when a payoff entry overflows; an
    overflow in any step leaves a non-finite entry.
    """

    w = np.arange(first + 1, first + 1 + len(averages[0]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = [
            _sym(w[:, None, None] * (0.0 - _ceiling(lam, d, stack)))
            for d, stack in zip(density.blocks, averages)
        ]
    if not all(np.all(np.isfinite(stack.view(np.float64))) for stack in out):
        raise InputError(
            f"threshold lambda {lam:.6g} overflows the payoffs "
            "(r+1)(S_r(a) - lambda rho)"
        )
    return out


def _domination_slacks(
    e: HermitianOperator, scale: float, density: HermitianOperator,
    averages: list[np.ndarray], prefix: str,
) -> dict[str, float]:
    """``prefix + str(r)``: least eigenvalue of ``e (scale density - S_r) e``.

    ``averages`` holds one ``(m, d, d)`` stack of S_0, ..., S_{m-1} per
    algebra block.  Each slice of a block's stack (``_slices``) is cut
    into its ceilings (``_ceiling``) and compressed by e in one batched
    product, and ``_extremes`` decomposes it in one checked ``eigh_stack``
    call, so no ceiling stack is held whole; every matrix gets the bits
    ``compress`` and ``eigh`` give it alone.  An operator's least
    eigenvalue is the least over its blocks, the first block on ties as
    ``min_eigenvalue`` takes it, so a signed zero keeps its sign.
    """

    lows, _ = _extremes(
        (_sym((ec @ _ceiling(scale, d, stack[part])) @ ec) for part in _slices(stack))
        for ec, d, stack in zip(e.blocks, density.blocks, averages)
    )
    return {f"{prefix}{r}": float(low) for r, low in enumerate(lows)}


def pointwise_certificate(
    a: LOneElement,
    lam: float,
    n: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
    path: ProjectionPath | None = None,
) -> Certificate:
    """Projection e_n with the order-n domination and mass inequalities.

    e_n is order n of ``path``.  Without a path the call walks a new one,
    so it solves every order 0..n, each warm from the one before.
    Residuals: ``pointwise_r`` is the least eigenvalue of
    ``e_n (lambda rho - S_r(a)) e_n`` for each r <= n, and
    ``mass_2_over_lambda`` is ``(2/lambda) Tr(a) - Tr(rho (1 - e_n))``.
    The sharper one-over-lambda mass slack is informational only.  The
    ceilings ``lambda rho - S_r(a)`` are cut from the path's average
    stacks (``ProjectionPath.average_stacks``) slice by slice, with the
    formula the payoffs use (``_ceiling``), and compressed by e_n per
    block in batched products.
    """

    _validate_problem(a, lam, n, state.algebra, ext.state.algebra)
    path = _path_for(path, a, lam, state, ext, opts)
    if tol is None:
        tol = _residual_tol(a, lam)
    step = path.step(n)
    e = step.projection
    one = state.algebra.identity()
    residuals = _domination_slacks(e, lam, state.rho, path.average_stacks(n), "pointwise_r")
    mass = (state.rho @ (one - e)).real_trace()
    residuals["mass_2_over_lambda"] = (2.0 / lam) * a.integral() - mass
    info = {
        "mass_1_over_lambda": (1.0 / lam) * a.integral() - mass,
        "exceptional_mass": mass,
        "objective": step.objective,
        "dual_bound": step.dual_bound,
        "gap": step.gap,
        "sweeps": float(step.sweeps),
        "stalled": float(step.stalled),
    }
    return Certificate(
        projection=e,
        lam=lam,
        kind="pointwise",
        order=n,
        residuals=residuals,
        tolerances={"residual": tol, "eps_kernel": step.eps_kernel},
        info=info,
    )


def _cluster_tail(
    es: list[HermitianOperator], cluster_tol: float
) -> tuple[list[int], np.ndarray]:
    """Indices of the largest op-norm cluster (latest on ties) and distances.

    ``dist[i, j]`` is ``op_norm(es[i] - es[j])``, bit for bit.  The
    differences are formed one row at a time, ``e_i - e_j`` for every
    j > i as per-block stacks symmetrized as the operators are, and their
    norms read through ``_norms``: no operator is built per pair, and only
    one row of differences is held at once.
    """

    k = len(es)
    dist = np.zeros((k, k))
    stacks = _stacked(es)
    for i in range(k - 1):
        dist[i, i + 1 :] = dist[i + 1 :, i] = _norms([_sym(s[i] - s[i + 1 :]) for s in stacks])
    best: list[int] = []
    for i in range(k):
        members = [j for j in range(k) if dist[i, j] <= cluster_tol]
        if len(members) >= len(best):
            best = members
    return best, dist


def _limit_cut(
    path: ProjectionPath, horizon: int
) -> tuple[
    list[np.ndarray], HermitianOperator, HermitianOperator, float, LimitDiagnostics
]:
    """The limit construction the uniform and tracial certificates share.

    Takes the projections e_1, ..., e_horizon of the path (solving the
    orders not solved yet), averages the largest op-norm cluster into h and
    cuts h above 1/2 (under ``opts.strict_cuts`` an eigenvalue of h at
    the cut raises ``AmbiguousSpectralCut``).  Returns the path's stacks
    of the averages S_0(a), ..., S_c(a) up to the check horizon c, the
    order-horizon projection, the cut projection e, the cut width, and
    diagnostics that carry h and the inverse cut.  Raises
    ``NoStableLimit``, carrying diagnostics, when no cluster reaches
    ``opts.window`` members.
    """

    opts = path.opts
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    check_horizon = (
        4 * horizon if opts.check_horizon is None else int(opts.check_horizon)
    )
    if check_horizon < horizon:
        raise InputError("check horizon must cover the solve horizon")
    averages = path.average_stacks(check_horizon)
    steps = [path.step(n) for n in range(1, horizon + 1)]
    es = [s.projection for s in steps]

    members, dist = _cluster_tail(es, opts.cluster_tol)
    h = HermitianOperator._exact(
        [
            np.mean([es[i].blocks[c] for i in members], axis=0)
            for c in range(len(path.density.dims))
        ]
    )
    diag = LimitDiagnostics(
        distances=tuple(float(dist[members[-1], j]) for j in range(len(es))),
        cluster=tuple(i + 1 for i in members),
        window=opts.window,
        cluster_tol=opts.cluster_tol,
        stalled_solves=sum(s.stalled for s in steps),
        h=h,
    )
    if len(members) < opts.window:
        raise NoStableLimit(
            f"largest projection cluster has {len(members)} members, "
            f"needs {opts.window}",
            diagnostics=diag,
        )

    spec = eigh(h)
    eps, masks = _cut(spec.eigenvalues, 0.5, 1.0, opts.eps_kernel, opts.strict_cuts)
    e = HermitianOperator._exact([_projector(u, m) for u, m in zip(spec.vectors, masks)])
    # h inverted on the range of e (same mask, same eigenbasis), so ginv h = e
    # holds to roundoff and ||ginv|| <= 1 / (1/2 + eps)
    inv = [np.divide(1.0, w, out=np.zeros_like(w), where=m) for w, m in zip(spec.eigenvalues, masks)]
    ginv = HermitianOperator._exact([(u * f) @ u.conj().T for u, f in zip(spec.vectors, inv)])
    diag = replace(diag, inverse_cut=ginv, inverse_cut_norm=op_norm(ginv))
    return averages, es[-1], e, eps, diag


def _limit_info(averages: list[np.ndarray], diag: LimitDiagnostics) -> dict[str, float]:
    # the info a limit certificate records, from _limit_cut's averages and diagnostics
    return {
        "cluster_size": float(len(diag.cluster)),
        "check_horizon": float(len(averages[0]) - 1),
        "stalled_solves": float(diag.stalled_solves),
    }


def uniform_projection(
    a: LOneElement,
    lam: float,
    horizon: int,
    state: State,
    ext: ExtendedMap,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
    path: ProjectionPath | None = None,
) -> tuple[Certificate, LimitDiagnostics]:
    """One projection controlling every average up to the check horizon.

    Takes the projections e_1, ..., e_horizon of ``path`` (without one,
    of a new path, whose orders 0..horizon are then all solved), averages
    their largest op-norm cluster into h, and cuts h above 1/2.  Residuals: ``uniform_r`` is
    ``4 lambda - Tr(e S_r(a) e)`` for r up to ``opts.check_horizon``
    (default four times the horizon), ``mass_2_over_lambda`` as in the
    pointwise certificate, plus the inverse-cut identities.  Raises
    ``NoStableLimit``, carrying diagnostics, when no cluster reaches
    ``opts.window`` members.
    """

    _validate_problem(a, lam, horizon, state.algebra, ext.state.algebra)
    path = _path_for(path, a, lam, state, ext, opts)
    if tol is None:
        tol = _residual_tol(a, lam)
    averages, _, e, eps, diag = _limit_cut(path, horizon)
    h, ginv = diag.h, diag.inverse_cut
    one = state.algebra.identity()

    # Tr(e S_r e) for every r: batched products per block and slice, summed
    # over the blocks in block order
    traces = sum(
        np.concatenate(
            [
                np.trace((eb @ stack[part]) @ eb, axis1=-2, axis2=-1).real
                for part in _slices(stack)
            ]
        )
        for eb, stack in zip(e.blocks, averages)
    )
    residuals = {f"uniform_r{r}": 4.0 * lam - float(t) for r, t in enumerate(traces)}
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
        tolerances={"residual": tol, "eps_kernel": eps},
        info={"exceptional_mass": mass, **_limit_info(averages, diag)},
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
    as ``uniform_projection``, on a projection path of its own.
    Residuals: ``pointwise_r`` is the least eigenvalue of
    ``e_H (lambda - S_r(a)) e_H`` for r <= horizon,
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
    _require_conditions(
        _condition_report(T, one, DEFAULT_SAMPLES, DEFAULT_CONDITION_TOL)
    )

    path = ProjectionPath(a, lam, one, T, opts)
    averages, e_last, e, eps, diag = _limit_cut(path, horizon)

    residuals = _domination_slacks(
        e_last, lam, one, path.average_stacks(horizon), "pointwise_r"
    )
    residuals.update(_domination_slacks(e, 2.0 * lam, one, averages, "uniform_r"))
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
        tolerances={"residual": tol, "eps_kernel": eps},
        info=_limit_info(averages, diag),
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

    rep = x.rep if isinstance(x, LOneElement) else x
    norm_x = norm(rep)
    if tol is None:
        tol = RESIDUAL_RTOL * max(1.0, lam, norm_x)
    one = state.algebra.identity()
    mass = (state.rho @ (one - e)).real_trace()
    if mass > (c * norm_x / lam) ** p + tol:
        return False
    ext.base.algebra.check_member(rep)
    hermitian = isinstance(rep, HermitianOperator)
    act = partial(ext._lp_act, p=p, hermitian=hermitian)
    if isinstance(x, LOneElement):
        act = ext.l1_action._act
    for blocks in _averages(act, rep.blocks, hermitian, horizon):
        comp = compress(e, HermitianOperator._exact(blocks))
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
    """Uniform-norm contraction of the averages S_1, ..., S_horizon.

    Draws ``samples`` seeded random positive elements x.  A map whose
    positivity is exact (``Pedigree.CONSTRUCTED_POSITIVE``) is tested on
    the identity alone, ``||S_r(1)|| <= 1 + 1e-9 / N`` with N the largest
    of 1 and the samples' norms: for positive S_r, 0 <= x <= ||x|| 1 gives
    ``||S_r(x)|| <= ||x|| ||S_r(1)|| <= ||x|| + 1e-9`` for every sample, so
    the rule is never looser than the sampled one.  Any other map is
    tested on the identity and every sample, ``||S_r(x)|| <= ||x|| + 1e-9``.
    The identity and the samples go straight into per-block stacks, each
    sample formed by ``_form`` as an operator's block is.  The tested
    inputs, the identity alone or the identity and the k samples, are
    averaged together in one recursion on those stacks (``_averages`` on
    ``T._act``; no operator per sample, per average or per application).
    The norms are read as families through ``_norms``, with the bits
    ``op_norm`` gives: the identity and the samples as one family,
    and S_1, ..., S_horizon of every tested input as one family of
    horizon x k operators, compared against each input's own bound, so
    every average up to the horizon is computed before any is compared.
    """

    if not _is_index(samples) or samples < 1:
        raise InputError(f"need a whole number of samples >= 1, got {samples!r}")
    if not _is_index(horizon) or horizon < 1:
        raise InputError(f"horizon must be a whole number >= 1, got {horizon!r}")
    dims = T.algebra.signature
    rng = np.random.default_rng(SAMPLER_SEED)
    # per algebra block, the identity and then each sample g g*, drawn
    # sample-major and then block from complex Gaussians g
    stacks = [[np.eye(d, dtype=np.complex128)] for d in dims]
    for _ in range(samples):
        for stack, d in zip(stacks, dims):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            stack.append(_form(g @ g.conj().T, True))
    inputs = [np.stack(stack) for stack in stacks]
    norms = _norms(inputs)
    bounds = norms + 1e-9
    if T.pedigree is Pedigree.CONSTRUCTED_POSITIVE:
        inputs = [stack[:1] for stack in inputs]
        bounds = 1.0 + 1e-9 / max(1.0, float(np.max(norms[1:])))
    averages = islice(_averages(T._act, inputs, True, horizon), 1, None)
    family = [np.concatenate(c) for c in zip(*averages)]
    return not np.any(_norms(family).reshape(horizon, -1) > bounds)


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

    The lift is ``example_tensor_markov`` with the one-dimensional inner
    algebra in its state 1: the matrix unit ``e_ji`` with weight ``P[i, j]``
    per positive entry.  The kernel must be stochastic with ``rho P <= rho``
    coordinatewise (``NotStochastic``, ``NotSubInvariant``), so the lifted
    map satisfies the absorption condition.  ``P`` of None is the identity
    map.  The lifted L1 action matches the oracle's scalar recursion.
    """

    from .algebra import make_state
    from .dynamics import example_tensor_markov, extend_l1

    a = np.asarray(a_diag, dtype=np.float64)
    rho = np.asarray(rho_diag, dtype=np.float64)
    if a.ndim != 1 or rho.ndim != 1 or a.shape != rho.shape:
        raise InputError("diagonal data must be matching vectors")
    if P is None:
        algebra = Algebra((1,) * a.size)
        state = make_state(
            algebra, HermitianOperator.from_diagonal(algebra.signature, rho)
        )
        model = PositiveMapModel.identity(algebra)
    else:
        unit = Algebra((1,))
        algebra, state, model = example_tensor_markov(
            P, rho, unit, make_state(unit, unit.identity())
        )
    a_op = HermitianOperator.from_diagonal(algebra.signature, a)
    return algebra, state, LOneElement(a_op), extend_l1(model, state)
