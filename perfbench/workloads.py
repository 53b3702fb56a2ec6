"""Seeded inputs for the three benchmark workloads.

Inputs are drawn with numpy from the benchmark seed alone, so they do not
change when the program's own generators change.  A workload is a fixed
number of *units*: one unit is one run of the command line on one input,
and returns what the command wrote.  A round runs every unit once; the
benchmark repeats rounds, so the pool of units is what a run's figures
rest on.  ``setup()`` is the program's
side of preparing the inputs, which ``setup_s`` times: ``suite_instance``,
or ``load_scenario`` and ``build_problem``.

* ``suite``: ``ergocert suite`` on consecutive instance seeds, one instance
  per unit, the headline end-to-end.  Thousands of eigendecompositions on 1-5 dimensional blocks,
  so per-call overhead dominates.
* ``orders``: ``ergocert verify`` on one scenario per map kind, small
  algebras and tens of orders, each order solved cold.  The block ascent
  and its swap screen lead; map application, scenario parsing and
  canonical emission are all on the path.
* ``wide``: ``ergocert verify`` on blocks of size 16-24 in state and
  tracial-weight mode.  LAPACK work is real here, not call overhead: the
  contrast case for anything that batches tiny calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

# signature and lambda cycle with period 9 over consecutive instance seeds,
# so 45 seeds cover every (signature, lambda) pair five times
SUITE_DIMS = (2, 3)
SUITE_COUNT = 45
SUITE_HORIZON = 8

# seeds draw states, maps and inputs; sizes, traces and thresholds are fixed
# so that a seed changes the content of a workload, not its scale
KRAUS_OPS = 2

# (map kind, algebra or None when derived); all state mode
ORDERS_KINDS = (
    ("kraus", (2, 1)),
    ("markov_tensor", None),
    ("cond_exp", (3,)),
    ("explicit_superoperator", (2, 1)),
)
ORDERS_N_MAX = 20
ORDERS_HORIZON = 8
ORDERS_TRACE = 2.0
ORDERS_LAMBDA = 1.0
ORDERS_GROUPS = 3

# (algebra, mode, lambda); trace, horizon and n_max are shared
WIDE_SPECS = (
    ((16,), "state", 1.0),
    ((16,), "tracial_weight", 0.1),
    ((24,), "state", 0.1),
    ((24,), "tracial_weight", 1.0),
    ((8, 16), "state", 1.0),
    ((8, 16), "tracial_weight", 0.1),
)
WIDE_TRACE = 10.0
WIDE_HORIZON = 15
WIDE_N_MAX = 3
WIDE_GROUPS = 2


class Size:
    """Workload dimensions; ``smoke`` is the smallest that covers every layer."""

    def __init__(self, smoke: bool):
        self.suite_count = 3 if smoke else SUITE_COUNT
        self.orders_groups = 1 if smoke else ORDERS_GROUPS
        self.orders_n_max = 3 if smoke else ORDERS_N_MAX
        self.orders_horizon = 5 if smoke else ORDERS_HORIZON
        self.wide_groups = 1 if smoke else WIDE_GROUPS
        self.wide_specs = WIDE_SPECS[:2] if smoke else WIDE_SPECS
        self.wide_horizon = 5 if smoke else WIDE_HORIZON


# -- numpy recipes --------------------------------------------------------------


def _complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _density(rng: np.random.Generator, dims) -> list[np.ndarray]:
    blocks = []
    for d in dims:
        g = _complex(rng, d)
        blocks.append(g @ g.conj().T / d + 0.1 * np.eye(d))
    total = sum(float(np.trace(b).real) for b in blocks)
    return [b / total for b in blocks]


def _positive(rng: np.random.Generator, dims, trace: float) -> list[np.ndarray]:
    blocks = []
    for d in dims:
        g = _complex(rng, d)
        blocks.append(g @ g.conj().T)
    total = sum(float(np.trace(b).real) for b in blocks)
    return [(trace / total) * b for b in blocks]


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    full = np.zeros((n, n), dtype=np.complex128)
    k = 0
    for b in blocks:
        d = b.shape[0]
        full[k : k + d, k : k + d] = b
        k += d
    return full


def _kraus(rng: np.random.Generator, dims, rho: list[np.ndarray] | None):
    """Kraus family with sum w V*V <= 0.99 and sum w V rho V* <= 0.99 rho.

    Pinching preserves both inequalities, so the map satisfies the
    contraction and expectation-decrease conditions with margin; ``rho``
    of None is the tracial weight (identity density).
    """

    n = sum(dims)
    ops = [_complex(rng, n) for _ in range(KRAUS_OPS)]
    weights = rng.uniform(0.5, 1.5, size=KRAUS_OPS)
    rho_full = np.eye(n) if rho is None else _block_diag(rho)
    w, u = np.linalg.eigh(rho_full)
    neg_half = (u / np.sqrt(w)) @ u.conj().T
    gram = sum(c * (v.conj().T @ v) for c, v in zip(weights, ops))
    push = sum(c * (v @ rho_full @ v.conj().T) for c, v in zip(weights, ops))
    sandwiched = neg_half @ push @ neg_half
    bound = max(
        float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1]),
        float(np.linalg.eigvalsh(0.5 * (sandwiched + sandwiched.conj().T))[-1]),
    )
    scale = math.sqrt(0.99 / bound)
    return [scale * v for v in ops], [float(c) for c in weights]


def _encode(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _random_partition(rng: np.random.Generator, d: int) -> list[list[int]]:
    """Two nonempty index groups of range(d), d >= 2."""

    perm = [int(i) for i in rng.permutation(d)]
    cut = int(rng.integers(1, d))
    return [sorted(perm[:cut]), sorted(perm[cut:])]


def _scenario(seed, mode, dims, rho, map_spec, a, lam, n_max, horizon) -> dict:
    doc = {
        "schema_version": 1,
        "mode": mode,
        "map": map_spec,
        "input": {"kind": "blocks", "blocks": [_encode(b) for b in a]},
        "lambda": lam,
        "n_max": n_max,
        "horizon": horizon,
        "seed": seed,
    }
    if dims is not None:
        doc["algebra"] = list(dims)
    if rho is not None:
        doc["state"] = [_encode(b) for b in rho]
    return doc


def orders_group(seed: int, group: int, size: Size) -> list[dict]:
    """One state-mode scenario per map kind, small algebra, many orders."""

    from ergocert.algebra import Algebra
    from ergocert.dynamics import PositiveMapModel

    rng = np.random.default_rng([seed, 1, group])
    n_max, horizon = size.orders_n_max, size.orders_horizon
    docs = []
    for kind, dims in ORDERS_KINDS:
        if kind == "markov_tensor":
            sites, inner = 2, (2,)
            perms = [np.eye(sites)[list(p)] for p in ((0, 1), (1, 0))]
            mix = rng.dirichlet(np.ones(len(perms)))
            map_spec = {
                "kind": kind,
                "kernel": sum(c * p for c, p in zip(mix, perms)).tolist(),
                "mu": [1.0 / sites] * sites,
                "inner_algebra": list(inner),
                "inner_state": [_encode(b) for b in _density(rng, inner)],
            }
            a = _positive(rng, inner * sites, ORDERS_TRACE)
            docs.append(_scenario(seed, "state", None, None, map_spec, a,
                                  ORDERS_LAMBDA, n_max, horizon))
            continue
        rho = _density(rng, dims)
        if kind == "cond_exp":
            map_spec = {"kind": kind,
                        "partition": [_random_partition(rng, d) for d in dims]}
        else:
            ops, weights = _kraus(rng, dims, rho)
            if kind == "kraus":
                map_spec = {"kind": kind, "ops": [_encode(v) for v in ops],
                            "weights": weights}
            else:
                model = PositiveMapModel.from_kraus(Algebra(dims), ops, weights)
                map_spec = {"kind": kind, "matrix": _encode(model.as_superop())}
        a = _positive(rng, dims, ORDERS_TRACE)
        docs.append(_scenario(seed, "state", dims, rho, map_spec, a,
                              ORDERS_LAMBDA, n_max, horizon))
    return docs


def wide_group(seed: int, group: int, size: Size) -> list[dict]:
    """Large blocks in state and tracial-weight mode, few orders."""

    rng = np.random.default_rng([seed, 2, group])
    docs = []
    for dims, mode, lam in size.wide_specs:
        rho = _density(rng, dims) if mode == "state" else None
        ops, weights = _kraus(rng, dims, rho)
        map_spec = {"kind": "kraus", "ops": [_encode(v) for v in ops],
                    "weights": weights}
        a = _positive(rng, dims, WIDE_TRACE)
        docs.append(_scenario(seed, mode, dims, rho, map_spec, a, lam,
                              WIDE_N_MAX, size.wide_horizon))
    return docs


# -- workloads ---------------------------------------------------------------------


class SuiteWorkload:
    """``ergocert suite`` in process; unit i certifies instance seed base + i."""

    def __init__(self, seed: int, workdir: str, size: Size):
        self.base = random.Random(seed).randrange(1_000_000)
        self.units = size.suite_count
        self.out = os.path.join(workdir, "suite-report.json")

    def setup(self) -> None:
        from ergocert.suite import suite_instance

        for i in range(self.units):
            suite_instance(self.base + i, SUITE_DIMS)

    def run_unit(self, i: int) -> tuple[int, str]:
        return _run_cli([
            "suite", "--seed", str(self.base + i), "--count", "1",
            "--dims", ",".join(map(str, SUITE_DIMS)),
            "--horizon", str(SUITE_HORIZON), "--out", self.out,
        ], self.out)


class VerifyWorkload:
    """``ergocert verify`` in process; unit i verifies generated file i.

    The files are generated and written once; ``setup()`` times only what
    the program does with them.
    """

    def __init__(self, docs: list[dict], workdir: str,
                 forced_tol: float | None = None):
        self.units = len(docs)
        self.forced_tol = forced_tol
        self.paths: list[str] = []
        for i, doc in enumerate(docs):
            path = os.path.join(workdir, f"scenario-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths.append(path)

    def setup(self) -> None:
        from ergocert.scenario import build_problem, load_scenario

        for path in self.paths:
            build_problem(load_scenario(path))

    def run_unit(self, i: int) -> tuple[int, str]:
        path = self.paths[i]
        out = path + ".report"
        argv = ["verify", path, "--out", out]
        if i == 0 and self.forced_tol is not None:
            argv += ["--tol", repr(self.forced_tol)]
        return _run_cli(argv, out)


def _run_cli(argv: list[str], out: str) -> tuple[int, str]:
    """Exit code and the report written to ``out``, else the error printed."""

    from ergocert import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return code, err.getvalue()
    os.remove(out)
    return code, text


def make_workload(name: str, seed: int, workdir: str, smoke: bool,
                  forced_tol: float | None):
    size = Size(smoke)
    if name == "suite":
        return SuiteWorkload(seed, workdir, size)
    if name == "orders":
        docs = [d for g in range(size.orders_groups) for d in orders_group(seed, g, size)]
        return VerifyWorkload(docs, workdir, forced_tol)
    docs = [d for g in range(size.wide_groups) for d in wide_group(seed, g, size)]
    return VerifyWorkload(docs, workdir)
