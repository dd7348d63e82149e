"""Per-layer spans attached to bergman_lab from outside the package.

Nothing inside src/ is changed: `Tracer.installed()` replaces the public
functions of each module, and the names that analysis, weights, projection
and cli import from other modules, with wrappers that open a span, and
restores the originals on exit.  Untraced runs never install anything.

A span's self time is its duration minus the time of the spans it encloses.
Integrands handed to `integrate_radial` run inside the quadrature span but
execute the caller's code, so they are wrapped in a span named after the
caller: a tail's weight evaluations count as `weights.tail`, the
functional's integrand loop as `analysis.functional.*`, and
`quadrature.integrate_radial` keeps only the adaptive bookkeeping.

Spans are aggregated in memory by call path (calls, total, self) and
written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

import numpy as np

ROOT = "op"
SHALLOW = "analysis.functional.shallow"
DEEP = "analysis.functional.deep"
#: functional radii r = 1 - 2^-k with k >= DEEP_FROM count as deep
DEEP_FROM = 7
CLASS_DIAGNOSTICS = ("is_dhat_tail", "is_dhat_moments", "is_regular",
                     "dhat_beta_estimate", "moment_tail_ratio")

_perf = time.perf_counter


class Tracer:
    """Span stack, self-time totals, call counts and work counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack: list[list] = []          # [name, start, child_s, path]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.paths: dict[str, list] = {}     # path -> [calls, total_s, self_s]
        self.tables: dict[int, int] = {}     # id(KernelCoeffs) -> built

    # -- spans -----------------------------------------------------------

    def enter(self, name: str, counted: bool = True):
        parent = self.stack[-1][3] if self.stack else ""
        if counted:
            self.calls[name] += 1
        self.stack.append([name, _perf(), 0.0, parent + "/" + name])

    def leave(self):
        end = _perf()
        name, start, child, path = self.stack.pop()
        total = end - start
        own = total - child
        self.self_s[name] += own
        agg = self.paths.get(path)
        if agg is None:
            agg = self.paths[path] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += total
        agg[2] += own
        if self.stack:
            self.stack[-1][2] += total

    def owner(self) -> str:
        return self.stack[-1][0] if self.stack else ROOT

    def end_op(self):
        """Close the books on one operation's coefficient tables."""
        self.counts["coeffs.degrees"] += sum(self.tables.values())
        self.tables.clear()

    # -- wrappers --------------------------------------------------------

    def span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return wrapper

    def callback(self, fn, name: str):
        def wrapper(x):
            self.enter(name, counted=False)
            try:
                return fn(x)
            finally:
                self.leave()
        return wrapper

    def _functional(self, fn):
        @functools.wraps(fn)
        def wrapper(k, w, r, *args, **kwargs):
            depth = -math.log2(1.0 - r) if r < 1.0 else math.inf
            self.enter(DEEP if depth >= DEEP_FROM - 0.5 else SHALLOW)
            try:
                value = fn(k, w, r, *args, **kwargs)
            finally:
                self.leave()
            self.counts["functional.kept"] += 1
            return value
        return wrapper

    def _integrate_radial(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = self.owner()
            args = list(args)
            if args and args[0] is not None:
                args[0] = self.callback(args[0], owner)
            elif kwargs.get("f") is not None:
                kwargs["f"] = self.callback(kwargs["f"], owner)
            if kwargs.get("f_dist") is not None:
                kwargs["f_dist"] = self.callback(kwargs["f_dist"], owner)
            elif len(args) > 5 and args[5] is not None:
                args[5] = self.callback(args[5], owner)
            self.enter("quadrature.integrate_radial")
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return wrapper

    def _ensure(self, fn):
        @functools.wraps(fn)
        def ensure(coeffs, count):
            self.enter("kernel.coeffs.ensure")
            try:
                return fn(coeffs, count)
            finally:
                self.leave()
                self.tables[id(coeffs)] = coeffs.built
        return ensure

    def _moments_arith(self, fn):
        span = self.span(fn, "weights.moments_arith")

        @functools.wraps(fn)
        def log_moments_arith(table, x0, step, count):
            self.counts["moments_arith.terms"] += max(int(count), 0)
            return span(table, x0, step, count)
        return log_moments_arith

    def _ifft(self, fn):
        @functools.wraps(fn)
        def ifft(a, n=None, *args, **kwargs):
            self.counts["fft.calls"] += 1
            self.counts["fft.nodes"] += int(n if n is not None else np.shape(a)[-1])
            return fn(a, n, *args, **kwargs)
        return ifft

    def _dumps(self, fn):
        span = self.span(fn, "serialize.dumps")

        @functools.wraps(fn)
        def dumps_report(report):
            text = span(report)
            self.counts["report_bytes"] += len(text.encode("utf-8"))
            return text
        return dumps_report

    # -- installation ----------------------------------------------------

    def _patches(self):
        """(owner object, attribute, replacement) for every traced name."""
        from bergman_lab import analysis, cli, kernel, projection, quadrature, weights

        p = []
        integrate = self._integrate_radial(quadrature.integrate_radial)
        for mod in (quadrature, analysis, weights, projection):
            p.append((mod, "integrate_radial", integrate))
        circle = self.span(kernel.rk_circle_mean, "kernel.circle_mean")
        p += [(kernel, "rk_circle_mean", circle), (analysis, "rk_circle_mean", circle)]
        tail = self.span(weights.tail, "weights.tail")
        p += [(weights, "tail", tail), (analysis, "tail", tail)]
        p += [(analysis, "boundedness_functional",
               self._functional(analysis.boundedness_functional)),
              (analysis, "majorant", self.span(analysis.majorant, "analysis.majorant")),
              (analysis, "cesaro_lower",
               self.span(analysis.cesaro_lower, "analysis.cesaro"))]
        for name in CLASS_DIAGNOSTICS:
            wrapped = self.span(getattr(weights, name), "analysis.class_diagnostics")
            for mod in (analysis, cli):
                if hasattr(mod, name):
                    p.append((mod, name, wrapped))
        p += [(kernel.KernelCoeffs, "ensure", self._ensure(kernel.KernelCoeffs.ensure)),
              (weights.MomentTable, "log_moments_arith",
               self._moments_arith(weights.MomentTable.log_moments_arith)),
              (weights.MomentTable, "_build_grid",
               self.span(weights.MomentTable._build_grid, "weights.moment_grid"))]
        for name, span_name in (("project", "projection.project"),
                                ("project_bloch_image", "projection.bloch_image")):
            wrapped = self.span(getattr(projection, name), span_name)
            p += [(projection, name, wrapped), (cli, name, wrapped)]
        p += [(cli, "dumps_report", self._dumps(cli.dumps_report)),
              (np.fft, "ifft", self._ifft(np.fft.ifft))]
        return p

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for obj, attr, new in self._patches():
                saved.append((obj, attr, obj.__dict__[attr]))
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in reversed(saved):
                setattr(obj, attr, old)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        s, c, n = self.self_s, self.calls, self.counts
        functional_calls = c[SHALLOW] + c[DEEP]
        means = c["kernel.circle_mean"]
        return {
            "analysis.functional.shallow_s": s[SHALLOW],
            "analysis.functional.deep_s": s[DEEP],
            "analysis.functional.kept_ratio": (n["functional.kept"] / functional_calls
                                               if functional_calls else 0.0),
            "analysis.majorant_s": s["analysis.majorant"],
            "analysis.cesaro_s": s["analysis.cesaro"],
            "analysis.class_diagnostics_s": s["analysis.class_diagnostics"],
            "kernel.circle_mean.calls": means,
            "kernel.circle_mean.self_s": s["kernel.circle_mean"],
            "kernel.fft.calls": n["fft.calls"],
            "kernel.fft.nodes": n["fft.nodes"],
            "kernel.fft.levels_per_mean": n["fft.calls"] / means if means else 0.0,
            "kernel.coeffs.degrees": n["coeffs.degrees"],
            "kernel.coeffs.ensure_s": s["kernel.coeffs.ensure"],
            "weights.moment_grid_s": s["weights.moment_grid"],
            "weights.moments_arith.terms": n["moments_arith.terms"],
            "weights.moments_arith_s": s["weights.moments_arith"],
            "weights.tail.calls": c["weights.tail"],
            "weights.tail_s": s["weights.tail"],
            "quadrature.integrate_radial.calls": c["quadrature.integrate_radial"],
            "quadrature.integrate_radial.self_s": s["quadrature.integrate_radial"],
            "projection.project.calls": c["projection.project"],
            "projection.project_s": s["projection.project"],
            "projection.bloch_image_s": s["projection.bloch_image"],
            "serialize.dumps_s": s["serialize.dumps"],
            "serialize.report_bytes": n["report_bytes"],
        }

    def coverage(self) -> float:
        """Share of the operations' time spent inside a layer span."""
        total = self.paths.get("/" + ROOT, [0, 0.0, 0.0])[1]
        return 1.0 - self.self_s[ROOT] / total if total > 0 else 0.0
