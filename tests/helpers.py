"""Shared construction helpers for the test suite.

Everything is seeded through an explicit numpy Generator so repeated runs
see identical data.  Oracles used by the tests (power iteration, scalar
recursions) live next to the tests that use them, not here.  The
exceptions are the per-operator references for the stacked kernels of
``maximal``, kept here as the code those kernels replaced (among them the
block ascent, its swap pass and its screen growth one matrix at a time,
through ``numpy.linalg``), the map action, the Cesaro recursion and the
superoperator matrix one operator at a time, as they were before the
array action ``PositiveMapModel._act``, and the shift
comparison point the solver no longer builds itself, the spies on
when the solver computes its dual bound, and the solve that polishes
every block.  Outside ``maximal`` it keeps the draw of
``type_infinity_check`` one operator per sample, as it was before the
samples went straight into stacks, and the canonical emitter of
``scenario`` as it was before one bottom-up pass rendered each value once.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ergocert import linalg, maximal
from ergocert.dynamics import Pedigree
from ergocert.errors import ScenarioError
from ergocert.linalg import (
    BlockMatrix,
    HermitianOperator,
    is_psd,
    max_eigenvalue,
    min_eigenvalue,
    positive_part,
)
from ergocert.scenario import _fmt_scalar


def random_complex(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_block_matrix(rng: np.random.Generator, dims) -> BlockMatrix:
    return BlockMatrix([random_complex(rng, d) for d in dims])


def random_hermitian(rng: np.random.Generator, dims, scale: float = 1.0) -> HermitianOperator:
    blocks = []
    for d in dims:
        g = random_complex(rng, d)
        blocks.append(scale * 0.5 * (g + g.conj().T))
    return HermitianOperator(blocks)


def random_psd(rng: np.random.Generator, dims, rank=None) -> HermitianOperator:
    blocks = []
    for d in dims:
        r = d if rank is None else min(rank, d)
        g = random_complex(rng, d, r)
        blocks.append(g @ g.conj().T)
    return HermitianOperator(blocks)


def random_unitary(rng: np.random.Generator, dims) -> BlockMatrix:
    blocks = []
    for d in dims:
        q, r = np.linalg.qr(random_complex(rng, d))
        blocks.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return BlockMatrix(blocks)


def reference_dual_upper_bound(blocks_B) -> float:
    """A dual witness bound evaluated one operator at a time.

    The stacked version's folds, ``is_psd`` acceptance and deficit
    add-back, built from ``HermitianOperator`` arithmetic and cached
    per-operator eigendecompositions.  It also tries two things the
    stacked version no longer does: the shift of each candidate down by
    its least verified slack, and the candidate ``sum_r (B_r)_+``, which
    is here also the fallback when no candidate verifies.  With these
    the reference is never above the stacked bound beyond roundoff once a
    candidate verifies, so agreement shows that dropping them lost
    nothing.
    """

    bs = tuple(blocks_B)
    if not bs:
        return 0.0
    m = len(bs)
    dims = bs[0].dims
    zero = HermitianOperator.zeros(dims)
    one = HermitianOperator.identity(dims)
    total_dim = sum(dims)

    def folded(order):
        z = zero
        for r in order:
            z = z + positive_part(bs[r] - z)
        return z

    candidates = [sum((positive_part(b) for b in bs), start=zero)]
    orders = {tuple(range(m)), tuple(reversed(range(m)))}
    by_top = np.argsort([-max_eigenvalue(b) for b in bs], kind="stable")
    orders.add(tuple(int(i) for i in by_top))
    by_mass = np.argsort([-positive_part(b).real_trace() for b in bs], kind="stable")
    orders.add(tuple(int(i) for i in by_mass))
    for order in sorted(orders):
        candidates.append(folded(order))

    def deficit(z):
        return max(0.0, -min_eigenvalue(z), max(-min_eigenvalue(z - b) for b in bs))

    best = math.inf
    for z in candidates:
        slack = min(min_eigenvalue(z), min(min_eigenvalue(z - b) for b in bs))
        if slack > 0.0:
            z = z - slack * one
        if not (is_psd(z) and all(is_psd(z - b) for b in bs)):
            continue
        best = min(best, z.real_trace() + deficit(z) * total_dim)
    if not math.isfinite(best):
        best = candidates[0].real_trace() + deficit(candidates[0]) * total_dim
    return float(best)


def reference_payoffs(averages, lam: float, density) -> tuple:
    """The payoffs ``B_r = (r+1) (S_r(a) - lambda density)`` one operator at a
    time, from the averages S_0(a), S_1(a), ..."""

    return tuple(float(r + 1) * (s_r - lam * density) for r, s_r in enumerate(averages))


def shift_point(adjoint, xs) -> list:
    """``(T~(x_1), ..., T~(x_n), 0)``, the point the mass bound's derivation
    compares a maximizer against."""

    zero = HermitianOperator.zeros(xs[0].dims)
    return [adjoint.apply(x) for x in xs[1:]] + [zero]


def reference_swap_screen(bs) -> np.ndarray:
    """The swap screen one pair at a time: largest eigenvalue of B_s - B_r."""

    m = len(bs)
    screen = np.zeros((m, m))
    for r in range(m):
        for s in range(m):
            if s != r:
                diff = bs[s] - bs[r]
                screen[r, s] = float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[-1])
    return screen


def reference_psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(maximal._sym(m))
    w = np.clip(w, 0.0, None)
    if w.size and w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return (u * np.sqrt(w)) @ u.conj().T


def reference_block_update(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    chalf = reference_psd_sqrt(c)
    m = maximal._sym(chalf @ b @ chalf)
    w, u = np.linalg.eigh(m)
    mask = w > 0.0
    if not mask.any():
        return np.zeros_like(b)
    v = chalf @ u[:, mask]
    return v @ v.conj().T


def reference_swap_pass(bs, xs, screen) -> bool:
    """``maximal._swap_pass`` one candidate at a time."""

    changed = False
    m = len(bs)
    for r in range(m):
        xhalf = None
        for s in range(m):
            if s == r or screen[r, s] <= maximal.SWAP_SCREEN_TOL:
                continue
            if float(xs[r].trace().real) <= maximal.SWAP_SCREEN_TOL:
                break
            if xhalf is None:
                xhalf = reference_psd_sqrt(xs[r])
            mm = maximal._sym(xhalf @ (bs[s] - bs[r]) @ xhalf)
            w, u = np.linalg.eigh(mm)
            mask = w > 1e-15 * max(1.0, float(abs(w[-1])))
            if not mask.any():
                continue
            vpos = xhalf @ u[:, mask]
            vneg = xhalf @ u[:, ~mask]
            xs[r] = vneg @ vneg.conj().T
            xs[s] = maximal._sym(xs[s] + vpos @ vpos.conj().T)
            xhalf = None
            changed = True
    return changed


def reference_grow_screen(stack, old) -> np.ndarray:
    """``maximal._grow_screen`` with one batched ``eigvalsh`` call per row."""

    k, m = len(old), len(stack)
    screen = np.zeros((m, m))
    screen[:k, :k] = old
    for r in range(m):
        first = k if r < k else 0
        row, rest = screen[r, first:], stack[first:]
        for part in maximal._slices(rest):
            row[part] = np.linalg.eigvalsh(maximal._sym(rest[part] - stack[r]))[:, -1]
        screen[r, r] = 0.0
    return screen


def reference_ascend_block(bs, xs, budget, to_fixed_point, screen) -> tuple[int, str]:
    """``maximal._ascend_block`` with a full block update of every coordinate,
    zero or not, and ``reference_swap_pass``."""

    m = len(bs)
    d = bs[0].shape[0]
    eye = np.eye(d, dtype=np.complex128)
    pair = maximal._pair
    obj = None if to_fixed_point else sum(pair(b, x) for b, x in zip(bs, xs))
    sweeps = 0
    while sweeps < budget:
        sweeps += 1
        changed = False
        total = sum(xs)
        for r in reversed(range(m)):
            c = eye - (total - xs[r])
            xnew = reference_block_update(bs[r], c)
            if float(np.max(np.abs(xnew - xs[r]))) > 1e-14:
                total = total + (xnew - xs[r])
                xs[r] = xnew
                changed = True
        if m > 1 and reference_swap_pass(bs, xs, screen):
            changed = True
        if not changed:
            return sweeps, "fixed"
        if not to_fixed_point:
            new_obj = sum(pair(b, x) for b, x in zip(bs, xs))
            if new_obj - obj <= maximal.TOL_OBJ * max(1.0, abs(new_obj)):
                return sweeps, "flat"
            obj = new_obj
    return sweeps, "budget"


def perturbed_eigh(delta: float, max_entry: float = math.inf):
    """A stand-in for the eigensolver kernel ``linalg._eigh`` whose vectors
    are off by ``delta`` on every call whose entries stay below
    ``max_entry`` in magnitude."""

    real = linalg._eigh

    def fake(a):
        w, u = real(a)
        if np.max(np.abs(a)) < max_entry:
            u = u + delta
        return w, u

    return fake


def count_dual_calls(monkeypatch) -> list[int]:
    """The payoff count of every dual bound computed from now on in the test."""

    calls = []
    real = maximal.dual_upper_bound

    def counting(layout):
        calls.append(len(layout))
        return real(layout)

    monkeypatch.setattr(maximal, "dual_upper_bound", counting)
    return calls


def read_every_bound_at_once(monkeypatch) -> None:
    """Make every solve read its dual bound as soon as it returns."""

    real = maximal._solve_from_blocks

    def eager(*args):
        sol = real(*args)
        sol.dual_bound
        return sol

    monkeypatch.setattr(maximal, "_solve_from_blocks", eager)


def reference_solve_from_blocks(algebra, layout, opts, warm):
    """``_solve_from_blocks`` as it was when every block was polished.

    The same ascent, then, unless a block ran out of sweeps, the polish of
    every block, including one whose ascent ended on a sweep that changed
    nothing.
    """

    m = len(layout)
    nblocks = len(algebra.signature)
    scale = max(1.0, float(np.max(np.maximum(np.abs(layout.lows), np.abs(layout.tops)))))
    zeros = [(np.zeros((d, d), dtype=np.complex128),) * m for d in algebra.signature]
    if np.all(layout.tops <= 0.0):
        return maximal.MaximizerSolution(
            xs=tuple(zeros), objective=0.0, sweeps=0, stalled=False, _layout=layout
        )
    xs_arr = [list(xc) for xc in (zeros if warm is None else warm)]
    stacks = layout.stacks
    screens = [layout.screen(c) for c in range(nblocks)]
    runs = [
        maximal._ascend_block(stacks[c], xs_arr[c], opts.max_sweeps, False, screens[c])
        for c in range(nblocks)
    ]
    sweeps = max(sw for sw, _ in runs)
    stalled = any(stop == "budget" for _, stop in runs)
    if not stalled:
        sweeps += max(
            maximal._ascend_block(stacks[c], xs_arr[c], 30, True, screens[c])[0]
            for c in range(nblocks)
        )
    xs = tuple(tuple(maximal._sym(x) for x in xc) for xc in xs_arr)
    objective = maximal._point_objective(stacks, xs)
    stalled = stalled and max(0.0, layout.bound(m) - objective) > maximal.STALL_GAP * scale
    return maximal.MaximizerSolution(
        xs=xs, objective=objective, sweeps=sweeps, stalled=stalled, _layout=layout
    )


def always_polish(monkeypatch) -> None:
    """Make every solve the reference that polishes every block."""

    monkeypatch.setattr(maximal, "_solve_from_blocks", reference_solve_from_blocks)


def _reference_vec(x: BlockMatrix) -> np.ndarray:
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def _reference_unvec(signature, v: np.ndarray) -> list[np.ndarray]:
    blocks, k = [], 0
    for d in signature:
        blocks.append(v[k : k + d * d].reshape(d, d))
        k += d * d
    return blocks


def reference_apply(model, x: BlockMatrix) -> BlockMatrix:
    """``PositiveMapModel.apply`` one operator at a time: a Kraus map on the
    full matrix of x, a superoperator on its 1-d vector of entries."""

    model.algebra.check_member(x)
    signature = model.algebra.signature
    if model.kind == "kraus":
        n = sum(x.dims)
        full = np.zeros((n, n), dtype=np.complex128)
        k = 0
        for b in x.blocks:
            d = b.shape[0]
            full[k : k + d, k : k + d] = b
            k += d
        acc = np.zeros_like(full)
        for w, v in zip(model.kraus_weights, model.kraus_ops):
            acc += w * (v.conj().T @ full @ v)
        blocks, k = [], 0
        for d in signature:
            blocks.append(acc[k : k + d, k : k + d])
            k += d
        return linalg._result(type(x), blocks)
    out = model.matrix @ _reference_vec(x)
    return linalg._result(type(x), _reference_unvec(signature, out))


def reference_lp_apply(ext, x: BlockMatrix, p: float) -> BlockMatrix:
    """``ExtendedMap.lp_apply`` on operators, through ``reference_apply``."""

    if math.isinf(p):
        return reference_apply(ext.base, x)
    outer = ext.state.power(1.0 / (2.0 * p))
    inner = ext.state.power(-1.0 / (2.0 * p))
    mid = reference_apply(ext.base, linalg._result(type(x), (inner @ x @ inner).blocks))
    return linalg._result(type(x), (outer @ mid @ outer).blocks)


def reference_averages(step, x: BlockMatrix, n: int) -> list[BlockMatrix]:
    """S_0(x), ..., S_n(x) with operator arithmetic, one operator per power,
    sum and scaled sum."""

    power = acc = x
    out = [x]
    for r in range(1, n + 1):
        power = step(power)
        acc = acc + power
        out.append((1.0 / (r + 1)) * acc)
    return out


def reference_superop(algebra, f) -> np.ndarray:
    """The matrix of an operator map f on concatenated block entries, one
    ``BlockMatrix`` basis element at a time."""

    c = algebra.coeff_dim
    out = np.zeros((c, c), dtype=np.complex128)
    for k in range(c):
        v = np.zeros(c, dtype=np.complex128)
        v[k] = 1.0
        x = linalg._result(BlockMatrix, _reference_unvec(algebra.signature, v))
        out[:, k] = _reference_vec(f(x))
    return out


def reference_type_infinity_samples(algebra, samples: int) -> list[HermitianOperator]:
    """The seeded samples of ``type_infinity_check``, one operator each."""

    rng = np.random.default_rng(maximal.SAMPLER_SEED)
    drawn = []
    for _ in range(samples):
        blocks = []
        for d in algebra.signature:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(g @ g.conj().T)
        drawn.append(HermitianOperator._exact(blocks))
    return drawn


def reference_type_infinity_inputs(algebra, samples: int) -> list[np.ndarray]:
    """The identity and the samples, stacked per block from their operators."""

    drawn = reference_type_infinity_samples(algebra, samples)
    return maximal._stacked((algebra.identity(), *drawn))


def reference_type_infinity_check(T, samples: int = 12, horizon: int = 20) -> bool:
    """``type_infinity_check`` on the inputs drawn one operator per sample."""

    inputs = reference_type_infinity_inputs(T.algebra, samples)
    norms = maximal._norms(inputs)
    bounds = norms + 1e-9
    if T.pedigree is Pedigree.CONSTRUCTED_POSITIVE:
        inputs = [stack[:1] for stack in inputs]
        bounds = 1.0 + 1e-9 / max(1.0, float(np.max(norms[1:])))
    averages = list(maximal._averages(T._act, inputs, True, horizon))[1:]
    family = [np.concatenate(c) for c in zip(*averages)]
    return not np.any(maximal._norms(family).reshape(horizon, -1) > bounds)


def _reference_inline(obj) -> str | None:
    # single-line rendering, or None when the value must stay multi-line
    if isinstance(obj, dict):
        return None
    if isinstance(obj, (list, tuple)):
        parts = []
        for item in obj:
            s = _reference_inline(item)
            if s is None:
                return None
            parts.append(s)
        text = "[" + ", ".join(parts) + "]"
        return text if len(text) <= 88 else None
    return _fmt_scalar(obj)


def _reference_emit(obj, out: list[str], level: int) -> None:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise ScenarioError(f"object keys must be strings, got {k!r}")
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _reference_emit(obj[k], out, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
        return
    if isinstance(obj, (list, tuple)):
        flat = _reference_inline(obj)
        if flat is not None:
            out.append(flat)
            return
        out.append("[\n")
        items = list(obj)
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _reference_emit(item, out, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
        return
    out.append(_fmt_scalar(obj))


def reference_dumps(obj) -> str:
    """The canonical emitter that tried every nested list inline first.

    It renders a list's whole subtree before it checks the width, so a
    value nested k lists deep is rendered up to k + 1 times; kept to pin
    the bytes and the errors of ``scenario.dumps``.
    """

    out: list[str] = []
    _reference_emit(obj, out, 0)
    out.append("\n")
    return "".join(out)
