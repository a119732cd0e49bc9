"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer replaces public functions at the module attribute where the
calling module looks them up (``betabart.cli.run_test``,
``betabart.inference.fit_mle``, ...), so nothing under ``src/`` changes.
Each call becomes a span: name, start, end, parent span and op id.  Spans
stay in memory until the run ends.  ``restore`` puts the original
functions back, so untraced ops run the unmodified code.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

# (module, attribute) pairs wrapped in traced ops.  ``cli.main`` is the
# root span of an op; the others are the calls each module makes into the
# next layer down.
TARGETS = (
    ("cli", "main"),
    ("cli", "run_test"),
    ("cli", "fit_mle"),
    ("cli", "power_study"),
    ("inference", "fit_mle"),
    ("inference", "fit_restricted"),
    ("inference", "bartlett_factor"),
    ("cumulants", "cumulant_tensors"),
    ("cumulants", "epsilon_matrix"),
    ("simulate", "run_test"),
    ("simulate", "gen_beta_sample"),
)


def _fit_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _run_test_attrs(args, kwargs, result):
    boot_opts = kwargs.get("boot_opts")
    resamples = boot_opts.B if boot_opts is not None and result.boot_mean is not None else 0
    return {"B": int(resamples), "boot_failures": int(result.boot_failures)}


def _study_attrs(args, kwargs, result):
    return {"failures": int(result.failures)}


# Counts read from return values, so they are exact rather than timed.
_OBSERVERS = {
    "cli.fit_mle": _fit_attrs,
    "inference.fit_mle": _fit_attrs,
    "inference.fit_restricted": _fit_attrs,
    "cli.run_test": _run_test_attrs,
    "simulate.run_test": _run_test_attrs,
    "cli.power_study": _study_attrs,
}


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the ops run between ``install`` and ``restore``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, op: int) -> None:
        self.op = op
        for module_name, attr in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(self.op, len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
            handle.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children.

    Spans nest strictly (one thread, synchronous calls), so the children of
    a span never overlap and their durations can be summed.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span], scales: dict[int, float], count_ops: list[int]) -> dict:
    """Per-op per-layer figures.  Times (ms) are averaged over the ops in
    ``scales``, each span multiplied by its op's calibration factor.  Exact
    counts are averaged over ``count_ops``, a fixed prefix of the op
    sequence, so that two runs on one seed report identical counts."""
    own = self_times(spans)
    counted = set(count_ops)

    def total_ms(names, self_only=False):
        return 1e3 * sum(
            (own[s.id] if self_only else s.duration) * scales[s.op]
            for s in spans
            if s.op in scales and s.name in names
        ) / len(scales)

    def counted_spans(names):
        return [s for s in spans if s.op in counted and s.name in names]

    def per_count_op(value):
        return value / len(count_ops)

    fits_full = counted_spans({"cli.fit_mle", "inference.fit_mle"})
    fits_rest = counted_spans({"inference.fit_restricted"})
    tests = counted_spans({"cli.run_test", "simulate.run_test"})
    resamples = sum(s.attrs["B"] for s in tests)
    boot_failures = sum(s.attrs["boot_failures"] for s in tests)
    run_test = {"cli.run_test", "simulate.run_test"}
    return {
        "cli.self_ms": total_ms({"cli.main"}, self_only=True),
        "cli.fit_mle_calls": per_count_op(len(fits_full)),
        "inference.run_test_ms": total_ms(run_test),
        "inference.bootstrap_ms": total_ms(run_test, self_only=True),
        # no resample attempted means none wasted
        "inference.boot_success_ratio": (
            (resamples - boot_failures) / resamples if resamples else 1.0
        ),
        "fit.fit_mle_ms": total_ms({"cli.fit_mle", "inference.fit_mle"}),
        "fit.fit_restricted_ms": total_ms({"inference.fit_restricted"}),
        "fit.iterations_full": per_count_op(sum(s.attrs["iterations"] for s in fits_full)),
        "fit.iterations_restricted": per_count_op(
            sum(s.attrs["iterations"] for s in fits_rest)
        ),
        "cumulants.bartlett_factor_ms": total_ms({"inference.bartlett_factor"}),
        "cumulants.cumulant_tensors_ms": total_ms({"cumulants.cumulant_tensors"}),
        "cumulants.epsilon_matrix_ms": total_ms({"cumulants.epsilon_matrix"}),
        "cumulants.cumulant_tensors_calls": per_count_op(
            len(counted_spans({"cumulants.cumulant_tensors"}))
        ),
        "simulate.self_ms": total_ms({"cli.power_study"}, self_only=True),
        "simulate.gen_beta_sample_ms": total_ms({"simulate.gen_beta_sample"}),
        "simulate.replication_failures": per_count_op(
            sum(s.attrs["failures"] for s in counted_spans({"cli.power_study"}))
        ),
    }
