"""Seeded randomized instance suites and their aggregated verdicts.

One seed determines one instance completely: algebra signature, state,
certified map, input element, threshold, and order all derive from it
through fixed offsets, so a suite report is a pure function of
(seed, count, dims) and reruns are byte-identical.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    LOneElement,
    State,
    random_positive_l1,
    random_state,
)
from .dynamics import ExtendedMap, PositiveMapModel, extend_l1, random_certified_map
from .errors import InputError, NoStableLimit
from .maximal import (
    DEFAULT_OPTIONS,
    ProjectionPath,
    SolveOptions,
    pointwise_certificate,
    type_infinity_check,
    uniform_projection,
)
from .scenario import SCHEMA_VERSION, certificate_record

SUITE_LAMBDAS = (0.1, 1.0, 10.0)
TRACE_RANGE = (0.1, 10.0)
MAX_ORDER = 12


def dims_pool(dims: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Signatures cycled by the suite: each factor alone, then their sum."""

    if not dims or any((not isinstance(d, (int, np.integer))) or d < 1 for d in dims):
        raise InputError(f"dims must be positive block dimensions, got {dims!r}")
    pool = [(int(d),) for d in dims]
    if len(dims) > 1:
        pool.append(tuple(int(d) for d in dims))
    return tuple(pool)


@dataclass(frozen=True)
class SuiteInstance:
    """One fully materialized random verification problem."""

    seed: int
    lam: float
    order: int
    algebra: Algebra
    state: State
    model: PositiveMapModel
    ext: ExtendedMap
    a: LOneElement


def suite_instance(seed: int, dims: Sequence[int] = (2, 3)) -> SuiteInstance:
    """Deterministic instance for one seed; the recipe is frozen.

    The trace draw happens before the three derived seeds are used, so
    changing any single component never shifts the others.
    """

    if seed < 0:
        raise InputError(f"suite seeds are nonnegative, got {seed}")
    pool = dims_pool(dims)
    rng = np.random.default_rng(seed)
    sig = pool[seed % len(pool)]
    lam = SUITE_LAMBDAS[(seed // len(pool)) % len(SUITE_LAMBDAS)]
    lo, hi = TRACE_RANGE
    trace = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    algebra = Algebra(sig)
    state = random_state(seed * 7 + 1, algebra)
    model = random_certified_map(seed * 7 + 2, algebra, state)
    ext = extend_l1(model, state)
    a = random_positive_l1(seed * 7 + 3, algebra, trace=trace)
    return SuiteInstance(
        seed=seed,
        lam=lam,
        order=seed % (MAX_ORDER + 1),
        algebra=algebra,
        state=state,
        model=model,
        ext=ext,
        a=a,
    )


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_suite(
    seed: int,
    count: int,
    dims: Sequence[int] = (2, 3),
    horizon: int = 8,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
) -> dict:
    """Certify `count` seeded instances and aggregate the verdicts.

    Per instance: a pointwise certificate at its order, a uniform
    certificate at the horizon, both on one projection path, and the
    sup-norm contraction check on its map.  A NoStableLimit is recorded,
    not gated; a produced certificate that fails gates the instance.
    The aggregate counts every solve of a path once, and reports the
    largest relative pointwise gap, gap / max(1, |dual bound|), with the
    number of those above 1e-8.
    """

    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    instances = []
    worst = float("inf")
    sweeps: list[float] = []
    gaps: list[float] = []
    rel_gaps: list[float] = []
    n_pointwise_pass = 0
    n_uniform_pass = 0
    n_uniform = 0
    n_no_limit = 0
    n_stalled = 0
    n_tinf = 0

    for i in range(count):
        inst = suite_instance(seed + i, dims)
        dim = inst.algebra.total_dim
        path = ProjectionPath(inst.a, inst.lam, inst.state.rho, inst.ext.l1_action, opts)
        pc = pointwise_certificate(
            inst.a, inst.lam, inst.order, inst.state, inst.ext, opts, tol, path
        )
        prec = certificate_record(pc, dim)
        sweeps.append(float(prec["sweeps"]))
        gaps.append(float(prec["gap"]))
        rel_gaps.append(pc.info["gap"] / max(1.0, abs(pc.info["dual_bound"])))
        n_pointwise_pass += int(pc.passed)
        worst = min(worst, prec["worst_residual"])

        try:
            uc, _ = uniform_projection(
                inst.a, inst.lam, horizon, inst.state, inst.ext, opts, tol, path
            )
            urec = {"no_stable_limit": False}
            urec.update(certificate_record(uc, dim))
            n_uniform += 1
            n_uniform_pass += int(uc.passed)
            worst = min(worst, urec["worst_residual"])
            uniform_ok = bool(uc.passed)
        except NoStableLimit as exc:
            urec = {"no_stable_limit": True, "message": str(exc)}
            if exc.diagnostics is not None:
                urec["cluster_size"] = len(exc.diagnostics.cluster)
                urec["stalled_solves"] = int(exc.diagnostics.stalled_solves)
            n_no_limit += 1
            uniform_ok = True
        n_stalled += sum(step.stalled for step in path.steps)

        tinf = type_infinity_check(inst.model)
        n_tinf += int(tinf)
        passed = bool(pc.passed and uniform_ok and tinf)
        instances.append(
            {
                "seed": inst.seed,
                "signature": list(inst.algebra.signature),
                "lambda": float(inst.lam),
                "order": int(inst.order),
                "integral": float(inst.a.integral()),
                "pointwise": prec,
                "uniform": urec,
                "type_infinity_ok": bool(tinf),
                "passed": passed,
            }
        )

    overall = all(r["passed"] for r in instances)
    aggregate = {
        "pass_rate": sum(r["passed"] for r in instances) / count,
        "pointwise_pass_rate": n_pointwise_pass / count,
        "uniform_pass_rate": (n_uniform_pass / n_uniform) if n_uniform else 1.0,
        "no_stable_limit_count": n_no_limit,
        "no_stable_limit_rate": n_no_limit / count,
        "type_infinity_failures": count - n_tinf,
        "stalled_solves": n_stalled,
        "worst_residual": worst,
        "median_sweeps": _median(sweeps),
        "median_gap": _median(gaps),
        "max_rel_gap": max(rel_gaps),
        "rel_gaps_above_1e-8": sum(g > 1e-8 for g in rel_gaps),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "suite_report",
        "seed": int(seed),
        "count": int(count),
        "dims": [int(d) for d in dims],
        "horizon": int(horizon),
        "instances": instances,
        "aggregate": aggregate,
        "overall_pass": bool(overall),
    }
