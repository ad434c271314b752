"""Span tracing from outside the program, by wrapping public functions.

Each function is wrapped under the name its caller looks it up by: the
harness imports the estimators and `simulate_exact` by name, the model
imports `generate_fbm` by name, and `PanelEngine` methods are looked up on
the class.  A name the program no longer has is listed in `missing`, and
the traced run then fails its output check: a span that was never wrapped
would otherwise read as zero time.

Spans stay in memory as [name, start_ns, end_ns, parent_index, rows] and
are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import time


def _path_rows(args, kwargs) -> int:
    values = args[1] if len(args) > 1 else kwargs["values"]
    shape = getattr(values, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, rows=None):
        """`fn` wrapped so that each call records one span named `name`."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, rows(args, kwargs) if rows else 0]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, rows=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, rows))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are built from."""
        import fracvas.harness as harness
        import fracvas.limits as limits
        import fracvas.model as model
        import fracvas.estimators as estimators
        from fracvas.transforms import PanelEngine

        self.patch(model, "generate_fbm", "fbm.generate_fbm")
        self.patch(harness, "simulate_exact", "model.simulate_exact")
        self.patch(PanelEngine, "__init__", "transforms.engine_build")
        self.patch(harness, "shared_engine", "transforms.shared_engine")
        self.patch(estimators, "shared_engine", "transforms.shared_engine")
        self.patch(PanelEngine, "raw_panels", "transforms.raw_panels", rows=_path_rows)
        self.patch(PanelEngine, "statistics", "transforms.statistics")
        self.patch(harness, "estimate_gamma", "estimators.estimate_gamma")
        self.patch(harness, "estimate_hurst", "estimators.estimate_hurst")
        for mle in ("mle_joint", "mle_alpha", "mle_beta", "mle_mu_kappa"):
            self.patch(harness, mle, "estimators.mle")
        self.patch(harness, "ratio_cdf", "limits.ratio_cdf")
        for law in (limits.NormalLaw, limits.ZetaLaw, limits.ScaledChiSquareLaw):
            self.patch(law, "cdf", "limits.law_cdf")
        self.patch(harness, "ks_test", "harness.ks_test")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, rows), inner in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["rows"] += rows
            agg["s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - inner) * 1e-9
        return out

    def shared_engine_hits(self) -> int:
        """`shared_engine` calls that returned a cached engine (no build inside)."""
        built = {p for name, _, _, p, _ in self.spans if name == "transforms.engine_build"}
        return sum(
            1
            for i, span in enumerate(self.spans)
            if span[0] == "transforms.shared_engine" and i not in built
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)
