"""ergocert benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The process pins BLAS to one thread, makes its inputs from ``--seed``,
sets them up several times (``setup_s``), then runs rounds over the
workload's units until ``--seconds`` are used and reports medians.  A
fixed reference task runs between units; every time is scaled to the
speed at which that task takes its nominal time (``reference.py``).
Every round is checked: certificates pass their gates,
residuals and dual bounds hold, nothing raises except a recorded
``NoStableLimit``, and reports are byte-identical across rounds.  The last stdout line is the result object;
the line before it carries run information (versions, seed, sample count,
report digest).  The exit code is 0 only when the gate holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up repeats until this many seconds are spent, at least SETUP_MIN times
SETUP_SECONDS = 3.0
SETUP_MIN = 3
IMPORT_REPEATS = 7
# share of --seconds spent untraced in a traced run, for trace_overhead_ratio
TRACED_UNTRACED_SHARE = 0.4
# rounds run whatever the budget: two to compare reports, one traced
MIN_ROUNDS, MIN_TRACED_ROUNDS = 2, 1
SELF_TIME_RTOL = 1e-3
# exit codes of the ergocert command line
EXIT_PASS, EXIT_CERT_FAILURE, EXIT_BREAKDOWN = 0, 1, 3
CERT_KINDS = ("pointwise_certificate", "uniform_projection", "yeadon_tracial")

# layers reported by self time and by call count; README.md maps each to the
# end-to-end metric it should move
SELF_TIME_LAYERS = (
    "linalg.eigh", "linalg.spectral_projection", "maximal.dual",
    "maximal.ascent", "maximal.swap", "maximal.solve", "maximal.extract",
    "maximal.certify", "maximal.type_infinity", "dynamics.apply",
    "dynamics.cesaro_reps", "dynamics.extend_l1", "suite.instance",
    "scenario.build_problem", "scenario.load", "scenario.dumps", "cli.main",
)
CALL_LAYERS = (
    "linalg.eigh", "maximal.dual", "maximal.swap", "maximal.solve",
    "dynamics.apply",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("suite", "orders", "wide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: each workload at its smallest size")
    p.add_argument("--tol", type=float, default=None,
                   help="orders only: residual tolerance forced on the first "
                        "scenario, to exercise the failure path")
    return p.parse_args(argv)


def load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "ergocert", "__init__.py")):
        raise SystemExit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ergocert

    if not os.path.abspath(ergocert.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported ergocert from {ergocert.__file__}")


def time_import() -> float:
    """Median time of ``import ergocert`` in fresh interpreters."""

    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ergocert; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def run_units(workload, tracer, reference) -> list[dict]:
    """One round: every unit once, with its wall time and certificate
    latencies; the reference task runs after each unit."""

    units = []
    for i in range(workload.units):
        first = len(tracer.spans)
        t0 = time.perf_counter()
        result = workload.run_unit(i)
        wall = time.perf_counter() - t0
        reference.pace(wall)
        units.append({"wall": wall, "result": result,
                      "latencies": tracer.latencies(first)})
    return units


def run_rounds(workload, tracer, reference, budget: float, traced: bool,
               min_rounds: int):
    """Rounds over all units until the budget is used; one record per round,
    with the scale the reference tasks run during it give.

    A traced round runs inside the root span ``bench.round``, which takes
    the time no layer claims.
    """

    rounds = []
    start = time.perf_counter()
    tracer.install()
    try:
        while True:
            tracer.reset()
            mark = len(reference.times)
            t0 = time.perf_counter()
            if traced:
                units = tracer.call("bench.round", run_units,
                                    (workload, tracer, reference), {})
            else:
                units = run_units(workload, tracer, reference)
            wall = time.perf_counter() - t0
            rounds.append({
                "wall": wall, "units": units,
                "scale": reference.scale(mark),
                "outcomes": list(tracer.outcomes),
                "self": tracer.self_times() if traced else None,
                "calls": tracer.calls() if traced else None,
                "counts": dict(tracer.counts),
            })
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall"] for r in rounds)
            if len(rounds) >= min_rounds and elapsed + typical > budget:
                return rounds
    finally:
        tracer.uninstall()


# -- correctness gate ----------------------------------------------------------


def cert_records(report: dict) -> list[dict]:
    """Every certificate record of a scenario or suite report."""

    if report["kind"] == "suite_report":
        out = []
        for inst in report["instances"]:
            out.append(inst["pointwise"])
            if not inst["uniform"]["no_stable_limit"]:
                out.append(inst["uniform"])
        return out
    out = list(report["pointwise"] or [])
    if report["uniform"] and not report["uniform"]["no_stable_limit"]:
        out.append(report["uniform"])
    if report["tracial"]:
        out.append(report["tracial"])
    return out


def check_report(report: dict, where: str, errors: list[str]) -> list[float]:
    """Gate one report; returns the relative gaps of its pointwise records."""

    gaps = []
    if report["kind"] == "suite_report":
        for inst in report["instances"]:
            if not inst["type_infinity_ok"]:
                errors.append(f"{where}: type-infinity check failed, seed {inst['seed']}")
    for rec in cert_records(report):
        label = f"{where}: {rec['kind']} order {rec['order']}"
        tol = rec["tolerances"]["residual"]
        if not rec["passed"]:
            errors.append(f"{label} did not pass")
        worst = min(rec["residuals"].values())
        if worst < -tol:
            errors.append(f"{label} residual {worst:.3e} below -{tol:.3e}")
        info = rec["info"]
        if "objective" in info and info["objective"] > info["dual_bound"] + tol:
            errors.append(f"{label} objective above dual bound + tol")
        if rec["kind"] == "pointwise":
            gaps.append(info["gap"] / max(1.0, abs(info["dual_bound"])))
    return gaps


def gate(rounds: list[dict], errors: list[str]) -> dict:
    """Check every round; returns the quality figures of the run.

    An input ends in a report (exit 0), or in a ``NoStableLimit`` that the
    command reports as a breakdown (tracial mode records none in the
    report); anything else fails the gate.
    """

    first = [u["result"] for u in rounds[0]["units"]]
    for i, r in enumerate(rounds):
        for j, u in enumerate(r["units"]):
            code, text = u["result"]
            if code != 0 and not (code == EXIT_BREAKDOWN and text.startswith("NoStableLimit:")):
                errors.append(f"round {i} input {j}: exit code {code}")
            if u["result"] != first[j]:
                errors.append(f"round {i} input {j}: output differs from round 0")
        for kind, outcome in r["outcomes"]:
            if outcome not in ("pass", "no_stable_limit"):
                errors.append(f"round {i}: {kind} -> {outcome}")
    gaps = []
    digest = hashlib.sha256()
    for j, (code, text) in enumerate(first):
        digest.update(text.encode())
        if code in (EXIT_PASS, EXIT_CERT_FAILURE):
            gaps += check_report(json.loads(text), f"input {j}", errors)
    return {
        "max_rel_gap": max(gaps, default=0.0),
        "report_sha256": digest.hexdigest(),
    }


def outcome_counts(rounds: list[dict]) -> dict:
    certs = [o for r in rounds for k, o in r["outcomes"] if k in CERT_KINDS]
    limits = [o for r in rounds for k, o in r["outcomes"]
              if k in ("uniform_projection", "yeadon_tracial")]
    return {
        "attempted": len(certs),
        "failed": sum(o not in ("pass", "no_stable_limit") for o in certs),
        # certificates returned (passing or not) by one round
        "produced": sum(k in CERT_KINDS and o in ("pass", "fail")
                        for k, o in rounds[0]["outcomes"]),
        "no_stable_limit": sum(o == "no_stable_limit" for o in limits),
        "limit_attempts": len(limits),
    }


# -- metrics -------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def at_nominal(rounds: list[dict]) -> tuple[list[float], list[float]]:
    """Each round's time, and each certificate call's latency as a median
    over rounds, scaled to the reference task's nominal speed.

    A round's time is the sum of its units' wall times, the reference task
    left out.  Each round is scaled by the median of the tasks run during
    it, so that a round run while the host was slow does not read as the
    program being slow.
    """

    scales = [r["scale"] for r in rounds]
    walls = [c * sum(u["wall"] for u in r["units"]) for c, r in zip(scales, rounds)]
    calls = [statistics.median(c * t for c, t in zip(scales, column))
             for j in range(len(rounds[0]["units"]))
             for column in zip(*(r["units"][j]["latencies"] for r in rounds))]
    return walls, calls


def end_to_end(rounds, setup_s, produced: int) -> tuple[dict, int]:
    """Medians at the reference task's nominal speed; set-up is scaled by
    the median round's scale."""

    walls, samples = at_nominal(rounds)
    wall = statistics.median(walls)
    deciles = statistics.quantiles(samples, n=10)
    scale = statistics.median(r["scale"] for r in rounds)
    return {
        "wall_s": metric(wall, "s"),
        "certs_per_s": metric(produced / wall, "1/s"),
        "cert_p50_ms": metric(1e3 * statistics.median(samples), "ms"),
        "cert_p90_ms": metric(1e3 * deciles[8], "ms"),
        "setup_s": metric(scale * setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(samples)


def per_layer(traced, untraced, counts, quality) -> dict:
    def med(values):
        return statistics.median(values)

    out = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = metric(med(r["self"].get(layer, 0.0) for r in traced), "s")
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = metric(med(r["calls"][layer] for r in traced), "count")

    def ratio(num, den):
        return med(r["counts"].get(num, 0) / max(1, r["calls"][den]) for r in traced)

    out["linalg.eigh.cache_hit_ratio"] = metric(
        ratio("linalg.eigh.cache_hits", "linalg.eigh"), "ratio")
    out["maximal.swap.accept_ratio"] = metric(
        ratio("maximal.swap.accepted", "maximal.swap"), "ratio")
    out["maximal.ascent.sweeps"] = metric(
        med(r["counts"].get("maximal.ascent.sweeps", 0) for r in traced), "count")
    out["maximal.solve.stalled"] = metric(
        med(r["counts"].get("maximal.solve.stalled", 0) for r in traced), "count")
    out["trace_overhead_ratio"] = metric(
        med(r["wall"] for r in traced) / med(r["wall"] for r in untraced), "ratio")
    out["fail_rate"] = metric(counts["failed"] / max(1, counts["attempted"]), "ratio")
    out["no_stable_limit_rate"] = metric(
        counts["no_stable_limit"] / max(1, counts["limit_attempts"]), "ratio")
    out["max_rel_gap"] = metric(quality["max_rel_gap"], "ratio")
    return dict(sorted(out.items()))


def check_self_times(traced: list[dict], errors: list[str]) -> None:
    for i, r in enumerate(traced):
        total = sum(r["self"].values())
        if abs(total - r["wall"]) > SELF_TIME_RTOL * r["wall"]:
            errors.append(f"traced round {i}: self times sum to {total:.6f} s, "
                          f"wall {r['wall']:.6f} s")


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def versions(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.tol is not None and args.workload != "orders":
        raise SystemExit("benchmark: --tol applies to the orders workload only")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    load_program()
    from layertrace import Tracer
    from reference import Reference
    from workloads import make_workload

    smoke = args.size == "smoke"
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = make_workload(args.workload, args.seed, workdir, smoke, args.tol)
        import_s = time_import()
        setups: list[float] = []
        while len(setups) < SETUP_MIN or sum(setups) < SETUP_SECONDS:
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        errors: list[str] = []
        budget = args.seconds * (TRACED_UNTRACED_SHARE if args.trace else 1.0)
        reference = Reference()
        untraced = run_rounds(workload, Tracer(full=False), reference, budget,
                              False, MIN_ROUNDS)
        rounds = untraced
        if args.trace:
            tracer = Tracer(full=True)
            traced = run_rounds(workload, tracer, reference, args.seconds - budget,
                                True, MIN_TRACED_ROUNDS)
            check_self_times(traced, errors)
            rounds = untraced + traced
        quality = gate(rounds, errors)
        counts = outcome_counts(rounds)
        metrics, samples = end_to_end(untraced, setup_s, counts["produced"])
        info = {"workload": args.workload, **versions(args.seed),
                "units": workload.units, "rounds": len(untraced),
                "latency_samples": samples,
                "import_s": import_s, "setup_repeats": len(setups),
                "raw_wall_s": statistics.median(
                    sum(u["wall"] for u in r["units"]) for r in untraced),
                "raw_setup_s": setup_s,
                "scales": [r["scale"] for r in untraced],
                "reference_tasks": len(reference.times),
                **counts, **quality}
        if args.trace:
            metrics = per_layer(traced, untraced, counts, quality)
            info["traced_rounds"] = len(traced)
            info["traced_wall_s"] = statistics.median(r["wall"] for r in traced)
            last = traced[-1]
            info["share"] = {
                kind: {k: round(v / last["wall"], 4) for k, v in sorted(times.items())}
                for kind, times in (("self", last["self"]),
                                    ("inclusive", tracer.inclusive_times()))
            }
            write_spans(os.path.join(OUT, f"spans-{args.workload}.jsonl"),
                        tracer.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:20]:
        print(f"benchmark: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
