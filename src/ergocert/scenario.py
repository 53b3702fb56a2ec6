"""Scenario files, certificate reports, and their canonical serialization.

A scenario is a plain-text description of one verification problem: an
algebra, a state or tracial weight, a positive map, an input element, a
threshold lambda, and the orders to certify.  Running it produces a
report with one record per pointwise order plus a uniform record.  Both
documents use a restricted JSON profile written by a canonical emitter,
so identical inputs always produce byte-identical files.  The emitter
renders each value once, bottom-up: keys sorted, floats with 17
significant digits, and a list on one line when it holds no object and
that line, indentation aside, is at most 88 characters.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from io import StringIO
from typing import Any

import numpy as np

from .algebra import (
    Algebra,
    LOneElement,
    State,
    Weight,
    embed_l1,
    make_state,
    random_positive_l1,
)
from .dynamics import (
    ExtendedMap,
    PositiveMapModel,
    example_cond_expectation,
    example_tensor_markov,
    extend_l1,
)
from .errors import NoStableLimit, ScenarioError
from .linalg import HermitianOperator
from .maximal import (
    DEFAULT_OPTIONS,
    Certificate,
    LimitDiagnostics,
    ProjectionPath,
    SolveOptions,
    pointwise_certificate,
    uniform_projection,
    yeadon_tracial,
)

SCHEMA_VERSION = 1

MAP_KINDS = ("kraus", "markov_tensor", "cond_exp", "explicit_superoperator")
INPUT_KINDS = ("blocks", "embed", "random")
MODES = ("state", "tracial_weight")
TOLERANCE_KEYS = ("residual", "eps_kernel", "cluster_tol", "window", "check_horizon")
# largest magnitude of a matrix entry, a Kraus weight, a weight in mu or an
# input trace: products and sums of a few such numbers stay in the float range
_MAX_ENTRY = 1e100

# a list sits on one line when that line, indentation aside, is at most this
# wide; a pure function of content
_INLINE_WIDTH = 88


# -- canonical JSON emitter ---------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ScenarioError(f"non-finite number {x!r} cannot be serialized")
    s = f"{float(x):.17g}"
    # keep a decimal marker so parsing restores a float, not an int
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _fmt_scalar(obj: Any) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    raise ScenarioError(f"cannot serialize value of type {type(obj).__name__}")


def _render(obj: Any, level: int) -> tuple[str, bool]:
    """Text of a value at indentation ``level``, and whether it may sit inline.

    One bottom-up pass renders each value once.  A list goes on one line
    when every item may sit inline and the line, indentation aside, is at
    most ``_INLINE_WIDTH`` wide; an object never sits inline, not even ``{}``.
    """

    if isinstance(obj, dict):
        if not obj:
            return "{}", False
        rows = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise ScenarioError(f"object keys must be strings, got {k!r}")
            rows.append(json.dumps(k, ensure_ascii=True) + ": " + _render(obj[k], level + 1)[0])
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_render(item, level + 1) for item in obj]
        rows = [text for text, _ in items]
        if all(inline for _, inline in items):
            flat = "[" + ", ".join(rows) + "]"
            if len(flat) <= _INLINE_WIDTH:
                return flat, True
        brackets = "[]"
    else:
        return _fmt_scalar(obj), True
    pad = "  " * level
    body = ",\n".join(pad + "  " + row for row in rows)
    return brackets[0] + "\n" + body + "\n" + pad + brackets[1], False


def dumps(obj: Any) -> str:
    """Canonical text for a scenario or report: sorted keys, 17-digit floats."""

    return _render(obj, 0)[0] + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed document: {exc}") from exc


# -- matrix encoding ----------------------------------------------------------


def encode_matrix(arr: np.ndarray) -> list[list[list[float]]]:
    """Entries as [re, im] pairs; the canonical form for the file format."""

    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim != 2:
        raise ScenarioError(f"matrix must be 2-dimensional, got shape {a.shape}")
    return [
        [[float(v.real), float(v.imag)] for v in row]
        for row in a
    ]


def _decode_entry(v: Any) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(float(v), 0.0)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)
    ):
        return complex(float(v[0]), float(v[1]))
    raise ScenarioError(f"matrix entry must be a number or [re, im], got {v!r}")


def decode_matrix(data: Any) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioError("matrix must be a nonempty list of rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or not row:
            raise ScenarioError("matrix row must be a nonempty list")
        rows.append([_decode_entry(v) for v in row])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ScenarioError("matrix rows have unequal lengths")
    arr = np.array(rows, dtype=np.complex128)
    if not np.isfinite(arr.view(np.float64)).all():
        raise ScenarioError("matrix has non-finite entries")
    if np.abs(arr.view(np.float64)).max() > _MAX_ENTRY:
        raise ScenarioError(f"matrix entry magnitudes must be at most {_MAX_ENTRY:.0e}")
    return arr


def _decode_blocks(data: Any, what: str) -> list[np.ndarray]:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a nonempty list of square matrices")
    blocks = []
    for m in data:
        arr = decode_matrix(m)
        if arr.shape[0] != arr.shape[1]:
            raise ScenarioError(f"{what} block is not square: shape {arr.shape}")
        blocks.append(arr)
    return blocks


# -- scenario schema ----------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _as_int(v: Any, what: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


def _as_pos_float(v: Any, what: str) -> float:
    _require(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        f"{what} must be a number",
    )
    f = float(v)
    _require(math.isfinite(f) and f > 0.0, f"{what} must be positive and finite")
    return f


def _as_entry(v: Any, what: str) -> float:
    f = _as_pos_float(v, what)
    _require(f <= _MAX_ENTRY, f"{what} must be at most {_MAX_ENTRY:.0e}")
    return f


@dataclass(frozen=True)
class Scenario:
    """Validated problem description; matrices stay in encoded form."""

    mode: str
    signature: tuple[int, ...] | None
    state: list | None
    map_spec: dict
    input_spec: dict
    lam: float
    n_max: int
    horizon: int
    tolerances: dict
    seed: int | None

    @classmethod
    def from_dict(cls, d: Any) -> "Scenario":
        _require(isinstance(d, dict), "scenario must be an object")
        _require(
            d.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}",
        )
        known = {
            "schema_version",
            "kind",
            "mode",
            "algebra",
            "state",
            "map",
            "input",
            "lambda",
            "n_max",
            "horizon",
            "tolerances",
            "seed",
        }
        extra = sorted(set(d) - known)
        _require(not extra, f"unknown scenario fields: {', '.join(extra)}")
        if "kind" in d:
            _require(d["kind"] == "scenario", 'kind must be "scenario"')

        mode = d.get("mode", "state")
        _require(mode in MODES, f"mode must be one of {MODES}")

        map_spec = d.get("map")
        _require(isinstance(map_spec, dict), "map must be an object")
        kind = map_spec.get("kind")
        _require(kind in MAP_KINDS, f"map.kind must be one of {MAP_KINDS}")

        signature: tuple[int, ...] | None = None
        if "algebra" in d and d["algebra"] is not None:
            sig = d["algebra"]
            _require(
                isinstance(sig, list)
                and sig
                and all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in sig),
                "algebra must be a nonempty list of block dimensions >= 1",
            )
            signature = tuple(sig)

        state = d.get("state")
        if kind == "markov_tensor":
            _require(mode == "state", "markov_tensor scenarios require mode state")
            _require(
                signature is None and state is None,
                "markov_tensor derives algebra and state; omit both fields",
            )
            _check_markov_spec(map_spec)
        else:
            _require(signature is not None, "algebra signature is required")
            if mode == "state":
                _require(state is not None, "state entries are required in mode state")
            else:
                _require(state is None, "tracial_weight scenarios take no state")
                _require(
                    kind in ("kraus", "explicit_superoperator"),
                    f"map kind {kind} needs a state; use mode state",
                )
            if kind == "kraus":
                _check_kraus_spec(map_spec)
            elif kind == "cond_exp":
                _check_cond_exp_spec(map_spec)
            else:
                _check_superop_spec(map_spec)

        input_spec = d.get("input")
        _require(isinstance(input_spec, dict), "input must be an object")
        ikind = input_spec.get("kind")
        _require(ikind in INPUT_KINDS, f"input.kind must be one of {INPUT_KINDS}")
        if ikind == "blocks":
            _require(
                set(input_spec) == {"kind", "blocks"},
                "input blocks takes exactly the field: blocks",
            )
        elif ikind == "embed":
            _require(
                set(input_spec) == {"kind", "element"},
                "input embed takes exactly the field: element",
            )
        else:
            _require(
                set(input_spec) == {"kind", "seed", "trace"},
                "input random takes exactly the fields: seed, trace",
            )
            _require(
                _as_int(input_spec["seed"], "input.seed") >= 0,
                "input.seed must be >= 0",
            )
            _as_entry(input_spec["trace"], "input.trace")

        lam = _as_pos_float(d.get("lambda"), "lambda")
        n_max = _as_int(d.get("n_max"), "n_max")
        _require(n_max >= 0, "n_max must be >= 0")
        horizon = _as_int(d.get("horizon", 1), "horizon")
        _require(horizon >= 1, "horizon must be >= 1")

        tolerances = d.get("tolerances", {})
        _require(isinstance(tolerances, dict), "tolerances must be an object")
        unknown = sorted(set(tolerances) - set(TOLERANCE_KEYS))
        _require(not unknown, f"unknown tolerance fields: {', '.join(unknown)}")
        for key in ("residual", "eps_kernel", "cluster_tol"):
            if tolerances.get(key) is not None:
                _as_pos_float(tolerances[key], f"tolerances.{key}")
        for key in ("window", "check_horizon"):
            if tolerances.get(key) is not None:
                v = _as_int(tolerances[key], f"tolerances.{key}")
                _require(v >= 1, f"tolerances.{key} must be >= 1")
        window = tolerances.get("window")
        # a projection cluster never has more members than the horizon has orders
        _require(
            window is None or window <= horizon,
            f"tolerances.window {window} exceeds the horizon {horizon}",
        )

        seed = d.get("seed")
        if seed is not None:
            seed = _as_int(seed, "seed")

        return cls(
            mode=mode,
            signature=signature,
            state=state,
            map_spec=map_spec,
            input_spec=input_spec,
            lam=lam,
            n_max=n_max,
            horizon=horizon,
            tolerances={k: tolerances.get(k) for k in TOLERANCE_KEYS},
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "scenario",
            "mode": self.mode,
            "algebra": list(self.signature) if self.signature is not None else None,
            "state": self.state,
            "map": self.map_spec,
            "input": self.input_spec,
            "lambda": self.lam,
            "n_max": self.n_max,
            "horizon": self.horizon,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }


def _check_kraus_spec(spec: dict) -> None:
    allowed = {"kind", "ops", "weights"}
    extra = sorted(set(spec) - allowed)
    _require(not extra, f"unknown kraus fields: {', '.join(extra)}")
    ops = spec.get("ops")
    _require(isinstance(ops, list) and ops, "kraus map needs a nonempty ops list")
    weights = spec.get("weights")
    if weights is not None:
        _require(
            isinstance(weights, list) and len(weights) == len(ops),
            "kraus weights must match ops, one per operator",
        )
        for w in weights:
            _as_entry(w, "kraus weight")


def _check_markov_spec(spec: dict) -> None:
    allowed = {"kind", "kernel", "mu", "inner_algebra", "inner_state"}
    extra = sorted(set(spec) - allowed)
    _require(not extra, f"unknown markov_tensor fields: {', '.join(extra)}")
    for key in ("kernel", "mu", "inner_algebra", "inner_state"):
        _require(key in spec, f"markov_tensor map needs the field {key}")
    sig = spec["inner_algebra"]
    _require(
        isinstance(sig, list)
        and sig
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in sig),
        "inner_algebra must be a nonempty list of block dimensions >= 1",
    )
    mu = spec["mu"]
    _require(
        isinstance(mu, list)
        and mu
        and all(
            isinstance(x, (int, float))
            and not isinstance(x, bool)
            and abs(x) <= _MAX_ENTRY
            for x in mu
        ),
        f"mu must be a nonempty list of numbers at most {_MAX_ENTRY:.0e} in magnitude",
    )


def _check_cond_exp_spec(spec: dict) -> None:
    allowed = {"kind", "partition"}
    extra = sorted(set(spec) - allowed)
    _require(not extra, f"unknown cond_exp fields: {', '.join(extra)}")
    _require(isinstance(spec.get("partition"), list), "cond_exp needs a partition list")


def _check_superop_spec(spec: dict) -> None:
    allowed = {"kind", "matrix"}
    extra = sorted(set(spec) - allowed)
    _require(not extra, f"unknown explicit_superoperator fields: {', '.join(extra)}")
    _require("matrix" in spec, "explicit_superoperator needs a matrix")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return Scenario.from_dict(loads(text))


# -- problem assembly ---------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """Runnable objects built from one scenario."""

    algebra: Algebra
    state: State | None
    weight: Weight | None
    model: PositiveMapModel
    ext: ExtendedMap | None
    a: LOneElement
    lam: float
    n_max: int
    horizon: int
    opts: SolveOptions
    tol: float | None


def _build_options(sc: Scenario, strict: bool) -> SolveOptions:
    t = sc.tolerances
    return replace(
        DEFAULT_OPTIONS,
        eps_kernel=t.get("eps_kernel"),
        strict_cuts=strict,
        cluster_tol=t.get("cluster_tol") or DEFAULT_OPTIONS.cluster_tol,
        window=t.get("window") or DEFAULT_OPTIONS.window,
        check_horizon=t.get("check_horizon"),
    )


def _build_map(sc: Scenario, algebra: Algebra, state: State | None) -> PositiveMapModel:
    spec = sc.map_spec
    kind = spec["kind"]
    if kind == "kraus":
        ops = [decode_matrix(m) for m in spec["ops"]]
        weights = spec.get("weights")
        return PositiveMapModel.from_kraus(
            algebra, ops, [float(w) for w in weights] if weights is not None else None
        )
    if kind == "cond_exp":
        return example_cond_expectation(algebra, state, spec["partition"])
    return PositiveMapModel.from_superop(algebra, decode_matrix(spec["matrix"]))


def _build_input(
    sc: Scenario, algebra: Algebra, state: State | None
) -> LOneElement:
    spec = sc.input_spec
    kind = spec["kind"]
    if kind == "blocks":
        blocks = _decode_blocks(spec["blocks"], "input blocks")
        return LOneElement(HermitianOperator(blocks))
    if kind == "embed":
        element = HermitianOperator(_decode_blocks(spec["element"], "input element"))
        if state is None:
            # tracial weight: the density is the identity, embedding is trivial
            return LOneElement(element)
        return embed_l1(element, state)
    return random_positive_l1(
        int(spec["seed"]), algebra, trace=float(spec["trace"])
    )


def build_problem(sc: Scenario, strict: bool = False, tol: float | None = None) -> Problem:
    """Materialize algebra, state or weight, certified map, and input."""

    opts = _build_options(sc, strict)
    if tol is None:
        t = sc.tolerances.get("residual")
        tol = float(t) if t is not None else None

    weight = None
    if sc.map_spec["kind"] == "markov_tensor":
        spec = sc.map_spec
        inner = Algebra(tuple(spec["inner_algebra"]))
        inner_state = make_state(
            inner, HermitianOperator(_decode_blocks(spec["inner_state"], "inner_state"))
        )
        kernel = decode_matrix(spec["kernel"])
        if np.abs(kernel.imag).max() > 0.0:
            raise ScenarioError("markov_tensor kernel must be real")
        mu = np.asarray([float(x) for x in spec["mu"]], dtype=np.float64)
        algebra, state, model = example_tensor_markov(
            kernel.real, mu, inner, inner_state
        )
    else:
        algebra = Algebra(sc.signature)
        if sc.mode == "state":
            state = make_state(
                algebra, HermitianOperator(_decode_blocks(sc.state, "state"))
            )
        else:
            state, weight = None, Weight.tracial_weight(algebra)
        model = _build_map(sc, algebra, state)
    # tracial mode has a weight and no state, so no L1 extension
    ext = None if state is None else extend_l1(model, state)
    a = _build_input(sc, algebra, state)
    return Problem(
        algebra, state, weight, model, ext, a,
        sc.lam, sc.n_max, sc.horizon, opts, tol,
    )


# -- report records -----------------------------------------------------------


def certificate_record(cert: Certificate, dim: int) -> dict:
    """Plain-data view of one certificate, canonical key order by dumps."""

    rec = {
        "kind": cert.kind,
        "order": int(cert.order),
        "lambda": float(cert.lam),
        "passed": bool(cert.passed),
        "worst_residual": float(cert.worst_residual()),
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "tolerances": {
            k: (None if v is None else float(v)) for k, v in cert.tolerances.items()
        },
        "info": {k: float(v) for k, v in cert.info.items()},
        "projection_trace": float(cert.projection.real_trace()),
        "dim": int(dim),
    }
    if "sweeps" in cert.info:
        rec["sweeps"] = int(cert.info["sweeps"])
    if "gap" in cert.info:
        rec["gap"] = float(cert.info["gap"])
    return rec


def diagnostics_record(diag: LimitDiagnostics) -> dict:
    rec = {
        "distances": [float(x) for x in diag.distances],
        "cluster": [int(n) for n in diag.cluster],
        "window": int(diag.window),
        "cluster_tol": float(diag.cluster_tol),
        "stalled_solves": int(diag.stalled_solves),
    }
    if math.isfinite(diag.inverse_cut_norm):
        rec["inverse_cut_norm"] = float(diag.inverse_cut_norm)
    return rec


def run_scenario(sc: Scenario, strict: bool = False, tol: float | None = None) -> dict:
    """Execute the pipeline a scenario describes and build its report.

    Pointwise certificates run for n = 0..n_max, then one uniform
    certificate at the horizon, all on one projection path, so each order
    is solved once.  In state mode without --strict, a NoStableLimit is
    recorded in the report but does not gate the verdict; every produced
    certificate gates it.  Tracial mode records none: its NoStableLimit
    propagates to the caller, as numerical breakdowns do.
    """

    prob = build_problem(sc, strict, tol)
    dim = prob.algebra.total_dim
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "scenario_report",
        "scenario": sc.to_dict(),
        "seed": sc.seed,
        "strict": bool(strict),
        "pointwise": None,
        "uniform": None,
        "tracial": None,
        "diagnostics": None,
    }

    if sc.mode == "tracial_weight":
        cert = yeadon_tracial(
            prob.a, prob.lam, prob.horizon, prob.algebra, prob.weight,
            prob.model, prob.opts, prob.tol,
        )
        report["tracial"] = certificate_record(cert, dim)
        report["overall_pass"] = bool(cert.passed)
        return report

    path = ProjectionPath(
        prob.a, prob.lam, prob.state.rho, prob.ext.l1_action, prob.opts
    )
    records = []
    for n in range(prob.n_max + 1):
        cert = pointwise_certificate(
            prob.a, prob.lam, n, prob.state, prob.ext, prob.opts, prob.tol, path
        )
        records.append(certificate_record(cert, dim))
    report["pointwise"] = records

    try:
        ucert, diag = uniform_projection(
            prob.a, prob.lam, prob.horizon, prob.state, prob.ext,
            prob.opts, prob.tol, path,
        )
    except NoStableLimit as exc:
        if strict:
            raise
        rec = {"no_stable_limit": True, "message": str(exc)}
        if exc.diagnostics is not None:
            report["diagnostics"] = diagnostics_record(exc.diagnostics)
        report["uniform"] = rec
        report["overall_pass"] = all(r["passed"] for r in records)
        return report

    urec = {"no_stable_limit": False}
    urec.update(certificate_record(ucert, dim))
    report["uniform"] = urec
    report["diagnostics"] = diagnostics_record(diag)
    report["overall_pass"] = bool(
        all(r["passed"] for r in records) and ucert.passed
    )
    return report


def load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read report file: {exc}") from exc
    data = loads(text)
    if not isinstance(data, dict) or data.get("kind") not in (
        "scenario_report",
        "suite_report",
    ):
        raise ScenarioError("not a recognized report document")
    return data


# -- CSV export ---------------------------------------------------------------

_CSV_CORE = (
    "instance",
    "n",
    "kind",
    "passed",
    "objective",
    "dual_bound",
    "gap",
    "sweeps",
    "stalled",
    "projection_trace",
    "worst_residual",
)


def _checked(value: Any, kind: type, where: str, keys: tuple[str, ...] = ()) -> Any:
    # a list or object of a report as export_csv reads it, with its keys
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ScenarioError(f"report field {where} must be {noun}")
    for key in keys:
        if key not in value:
            raise ScenarioError(f"report field {where} has no {key!r}")
    return value


def _csv_row(instance: Any, record: Any, where: str) -> dict:
    record = _checked(record, dict, where, ("order", "kind", "passed"))
    info = _checked(record.get("info", {}), dict, f"{where}.info")
    row = {
        "instance": instance,
        "n": record["order"],
        "kind": record["kind"],
        "passed": record["passed"],
        "projection_trace": record.get("projection_trace"),
        "worst_residual": record.get("worst_residual"),
        "objective": info.get("objective"),
        "dual_bound": info.get("dual_bound"),
        "gap": info.get("gap"),
        "sweeps": record.get("sweeps"),
        "stalled": None if "stalled" not in info else bool(info["stalled"]),
        "residuals": _checked(record.get("residuals", {}), dict, f"{where}.residuals"),
    }
    return row


def _collect_rows(report: dict) -> list[dict]:
    rows: list[dict] = []
    if report["kind"] == "scenario_report":
        pointwise = _checked(report.get("pointwise") or [], list, "pointwise")
        for i, rec in enumerate(pointwise):
            rows.append(_csv_row(0, rec, f"pointwise[{i}]"))
        for key in ("uniform", "tracial"):
            rec = report.get(key)
            if rec and not _checked(rec, dict, key).get("no_stable_limit", False):
                rows.append(_csv_row(0, rec, key))
        return rows
    for i, inst in enumerate(_checked(report.get("instances", []), list, "instances")):
        where = f"instances[{i}]"
        seed = _checked(inst, dict, where, ("seed",))["seed"]
        rows.append(_csv_row(seed, inst.get("pointwise"), f"{where}.pointwise"))
        urec, where = inst.get("uniform"), f"{where}.uniform"
        if urec and not _checked(urec, dict, where).get("no_stable_limit", False):
            rows.append(_csv_row(seed, urec, where))
    return rows


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def export_csv(report: dict) -> str:
    """One row per (instance, n); residual names become columns."""

    rows = _collect_rows(report)
    residual_keys: set[str] = set()
    for row in rows:
        residual_keys.update(row["residuals"])
    header = list(_CSV_CORE) + sorted(residual_keys)

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = [_csv_cell(row[k]) for k in _CSV_CORE]
        cells += [_csv_cell(row["residuals"].get(k)) for k in sorted(residual_keys)]
        writer.writerow(cells)
    return buf.getvalue()
