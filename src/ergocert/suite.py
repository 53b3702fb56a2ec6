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
from .dynamics import (
    ExtendedMap,
    PositiveMapModel,
    _is_index,
    extend_l1,
    random_certified_map,
)
from .errors import InputError
from .maximal import DEFAULT_OPTIONS, SolveOptions, type_infinity_check
from .scenario import SCHEMA_VERSION, _state_records

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


def run_suite(
    seed: int,
    count: int,
    dims: Sequence[int] = (2, 3),
    horizon: int = 8,
    opts: SolveOptions = DEFAULT_OPTIONS,
    tol: float | None = None,
) -> dict:
    """Certify `count` seeded instances and aggregate the verdicts.

    Per instance: a pointwise certificate at its order and a uniform
    certificate at the horizon, both on one projection path
    (``scenario._state_records``), and the sup-norm contraction check on
    its map.  A NoStableLimit is recorded with the limit's cluster size
    and stalled solves, not gated; a produced certificate that fails
    gates the instance.  ``count`` and ``horizon`` must be whole numbers
    >= 1, checked before any solve.

    The aggregate is computed from the instance records, except
    ``stalled_solves``, which counts every solve of each path once,
    including orders no record shows.  It reports the largest relative
    pointwise gap, gap / max(1, |dual bound|), with the number of those
    above 1e-8.
    """

    for name, value in (("count", count), ("horizon", horizon)):
        if not _is_index(value) or value < 1:
            raise InputError(f"{name} must be a whole number >= 1, got {value!r}")
    instances = []
    stalled = 0
    for i in range(count):
        inst = suite_instance(seed + i, dims)
        path, (prec,), urec, diag = _state_records(
            inst.a, inst.lam, [inst.order], horizon, inst.state, inst.ext, opts, tol
        )
        if urec["no_stable_limit"] and diag is not None:
            urec["cluster_size"] = len(diag.cluster)
            urec["stalled_solves"] = int(diag.stalled_solves)
        stalled += sum(step.stalled for step in path.steps)
        tinf = type_infinity_check(inst.model)
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
                "passed": bool(
                    prec["passed"] and (urec["no_stable_limit"] or urec["passed"]) and tinf
                ),
            }
        )

    pointwise = [r["pointwise"] for r in instances]
    limits = [r["uniform"] for r in instances if not r["uniform"]["no_stable_limit"]]
    n_no_limit = count - len(limits)
    # instance by instance, pointwise before uniform: of equal values the
    # first wins, so the sign of a worst residual of zero is kept
    certs = (rec for r in instances for rec in (r["pointwise"], r["uniform"]))
    worst = min(rec["worst_residual"] for rec in certs if "worst_residual" in rec)
    rel_gaps = [p["gap"] / max(1.0, abs(p["info"]["dual_bound"])) for p in pointwise]
    aggregate = {
        "pass_rate": sum(r["passed"] for r in instances) / count,
        "pointwise_pass_rate": sum(p["passed"] for p in pointwise) / count,
        "uniform_pass_rate": (
            sum(u["passed"] for u in limits) / len(limits) if limits else 1.0
        ),
        "no_stable_limit_count": n_no_limit,
        "no_stable_limit_rate": n_no_limit / count,
        "type_infinity_failures": sum(not r["type_infinity_ok"] for r in instances),
        "stalled_solves": stalled,
        "worst_residual": worst,
        "median_sweeps": statistics.median(float(p["sweeps"]) for p in pointwise),
        "median_gap": statistics.median(p["gap"] for p in pointwise),
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
        "overall_pass": all(r["passed"] for r in instances),
    }
