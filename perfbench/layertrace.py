"""Layer spans recorded from outside the ergocert package.

Each traced layer is a module-level function (or ``PositiveMapModel.apply``).
``Tracer.install`` replaces the function in every ``ergocert`` module
namespace that binds it, so ``from .linalg import eigh`` in ``maximal`` and
the call ``op_norm -> eigh`` inside ``linalg`` are both caught; nothing
under ``src/`` changes.  Every call becomes a span (name, start, end,
parent, certificate id); a layer's self time is its span durations minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); attribute "Class.method" patches the class
LAYERS = (
    ("linalg.eigh", "ergocert.linalg", "eigh"),
    ("linalg.spectral_projection", "ergocert.linalg", "spectral_projection"),
    ("maximal.dual", "ergocert.maximal", "dual_upper_bound"),
    ("maximal.ascent", "ergocert.maximal", "_ascend_block"),
    ("maximal.swap", "ergocert.maximal", "_swap_pass"),
    ("maximal.solve", "ergocert.maximal", "_solve_from_blocks"),
    ("maximal.extract", "ergocert.maximal", "extract_projection"),
    ("maximal.certify", "ergocert.maximal", "pointwise_certificate"),
    ("maximal.certify", "ergocert.maximal", "uniform_projection"),
    ("maximal.certify", "ergocert.maximal", "yeadon_tracial"),
    ("maximal.type_infinity", "ergocert.maximal", "type_infinity_check"),
    ("dynamics.apply", "ergocert.dynamics", "PositiveMapModel.apply"),
    ("dynamics.cesaro_reps", "ergocert.dynamics", "cesaro_reps"),
    ("dynamics.extend_l1", "ergocert.dynamics", "extend_l1"),
    ("suite.instance", "ergocert.suite", "suite_instance"),
    ("scenario.build_problem", "ergocert.scenario", "build_problem"),
    ("scenario.load", "ergocert.scenario", "load_scenario"),
    ("scenario.dumps", "ergocert.scenario", "dumps"),
    ("cli.main", "ergocert.cli", "main"),
)

# the certificate entry points; the only spans of an untraced run
CERT_ENTRIES = {
    "pointwise_certificate",
    "uniform_projection",
    "yeadon_tracial",
    "type_infinity_check",
}


class Tracer:
    """Span recorder plus the per-layer counters read at the same boundary."""

    def __init__(self, full: bool):
        self.layers = [l for l in LAYERS if full or l[2] in CERT_ENTRIES]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (entry point, outcome) per certificate call; outcome is one of
        # "pass", "fail", "no_stable_limit" or the exception's type name
        self.outcomes: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._cert = 0
        self._certs = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""

        fname = fn.__name__
        entry = fname in CERT_ENTRIES
        saved = self._cert
        if entry:
            self._certs += 1
            self._cert = self._certs
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._cert]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._before(fname, args)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            if entry:
                self._outcome(fname, exc, None)
            raise
        else:
            span[2] = time.perf_counter()
            if entry:
                self._outcome(fname, None, result)
            self._after(fname, result)
            return result
        finally:
            self._stack.pop()
            self._cert = saved

    def _before(self, fname: str, args) -> None:
        if fname == "eigh" and args[0]._spec is not None:
            self.counts["linalg.eigh.cache_hits"] += 1

    def _after(self, fname: str, result) -> None:
        if fname == "_ascend_block":
            self.counts["maximal.ascent.sweeps"] += result[0]
        elif fname == "_swap_pass":
            self.counts["maximal.swap.accepted"] += int(result)
        elif fname == "_solve_from_blocks":
            self.counts["maximal.solve.stalled"] += int(result.stalled)

    def _outcome(self, fname: str, exc, result) -> None:
        if exc is not None:
            name = type(exc).__name__
            self.outcomes.append((fname, "no_stable_limit" if name == "NoStableLimit" else name))
            return
        if fname == "type_infinity_check":
            ok = bool(result)
        else:
            cert = result[0] if fname == "uniform_projection" else result
            ok = bool(cert.passed)
        self.outcomes.append((fname, "pass" if ok else "fail"))

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.outcomes = []

    def self_times(self) -> dict[str, float]:
        """Self time per span name over the recorded spans."""

        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span, cover in zip(self.spans, covered):
            out[span[0]] += (span[2] - span[1]) - cover
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Span durations per name, children included (no layer calls itself)."""

        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def latencies(self, first: int = 0) -> list[float]:
        """Durations of the certificate entry-point spans from span ``first`` on,
        in seconds, in call order."""

        names = {l[0] for l in LAYERS if l[2] in CERT_ENTRIES}
        return [s[2] - s[1] for s in self.spans[first:] if s[0] in names]

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        for _, modname, _ in self.layers:
            importlib.import_module(modname)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ergocert" or n.startswith("ergocert."))
        ]
        for name, modname, attr in self.layers:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []
