"""Spans around the calls into each module of the package.

``install`` replaces each public function the workloads reach with a
wrapper that records a span (name, start, end, parent span, op index)
and, for some names, a work count.  Every name is patched where it is
looked up: ``cli`` binds its callees through ``from ... import``, while
``quadrature`` and ``minimax`` reach theirs through module globals and the
trial and factor methods are looked up on their classes.  Nothing under
``src/`` changes.  Spans stay in memory until the run ends, when
``summary`` reduces them and ``save`` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from symhardy import cli, fields, minimax, polynomials, quadrature, trials

CONSTANT_FUNCTIONS = (
    "classical_hardy", "hardy_antisymmetric", "hardy_odd",
    "rellich_antisymmetric", "rellich_mitidieri", "rellich_odd",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op_index = -1  # advanced by the caller before each op
        self.counts = defaultdict(float)  # (op index, counter name) -> amount

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span; ``count(args, result)`` yields
        (measure, amount) pairs added to ``<name>.<measure>``."""
        name_id = self.intern(name)
        stack, spans_name, spans_op = self._stack, self.name, self.op
        spans_parent, spans_start, spans_end = self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans_start)
            spans_name.append(name_id)
            spans_op.append(self.op_index)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0.0)
            stack.append(index)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[index] = perf_counter()
                stack.pop()
            if count is not None:
                for measure, amount in count(args, result):
                    self.counts[self.op_index, f"{name}.{measure}"] += amount
            return result

        return traced

    def spans(self):
        """Span arrays: name index, op index, parent, start, end, self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return name, op, parent, start, end, duration - covered

    def save(self, path):
        name, op, parent, start, end, self_s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name, op=op,
                            parent=parent, start=start, end=end, self_s=self_s)

    def summary(self, n_ops, n_passes):
        """Per-pass medians of calls, busy and self seconds and counters;
        op i belongs to pass i // n_ops."""
        name, op, _, start, end, self_s = self.spans()
        passes = op // n_ops
        out = {}
        for name_id, label in enumerate(self.names):
            mine = name == name_id
            by_pass = passes[mine]
            out[f"{label}.calls"] = _per_pass(np.bincount(by_pass, minlength=n_passes))
            out[f"{label}.busy_s"] = _per_pass(
                np.bincount(by_pass, weights=(end - start)[mine], minlength=n_passes))
            out[f"{label}.self_s"] = _per_pass(
                np.bincount(by_pass, weights=self_s[mine], minlength=n_passes))
        totals = defaultdict(lambda: [0.0] * n_passes)
        for (op_index, counter), amount in self.counts.items():
            totals[counter][op_index // n_ops] += amount
        for counter, per_pass in totals.items():
            out[counter] = statistics.median(per_pass)
        return out


def _per_pass(values):
    return float(statistics.median(values.tolist()))


def _rows(x):
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _points(args, result):
    yield "points", _rows(args[1])


def _mc_counts(args, estimate):
    yield "samples", estimate.n
    yield "degenerate", estimate.degenerate


def _product_counts(args, estimate):
    yield "nodes", estimate.n


def _nonfinite(args, result):
    yield "nonfinite", 0.0 if math.isfinite(result[1]) else 1.0


def _certificate_points(args, result):
    yield "points", _rows(args[0])


def install(tracer):
    """Patch every traced name; returns a function that undoes the patches."""
    originals = []

    def patch(owner, attr, name, count=None):
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    patch(cli, "main", "cli.main")
    patch(cli, "rayleigh_quotient", "quadrature.rayleigh_quotient")
    patch(cli, "separable_hardy_quotient", "quadrature.separable")
    patch(cli, "separable_rellich_quotient", "quadrature.separable")
    patch(cli, "numeric_minimax", "minimax.numeric_minimax")
    patch(quadrature, "mc_integral", "quadrature.mc_integral", _mc_counts)
    patch(quadrature, "product_integral", "quadrature.product_integral",
          _product_counts)
    patch(quadrature, "quad", "quadrature.quad")
    patch(quadrature, "angular_moment", "quadrature.angular_moment")
    patch(quadrature, "reference_constant", "constants")
    for fn in CONSTANT_FUNCTIONS:
        patch(cli, fn, "constants")
    patch(minimax, "hardy_antisymmetric", "constants")
    patch(minimax, "hardy_odd", "constants")
    patch(minimax, "min_over_t", "minimax.min_over_t", _nonfinite)
    for method in ("value", "gradient", "laplacian"):
        patch(trials.TrialFunction, method, f"trials.{method}", _points)
    for method in ("value", "gradient"):
        patch(polynomials.AngularFactor, method, f"polynomials.{method}", _points)
    patch(fields.SectorDomain, "sample_interior", "fields.sample_interior")
    patch(fields, "certificate_many", "fields.certificate_many",
          _certificate_points)

    def traced_profile(make_profile):
        @functools.wraps(make_profile)
        def traced_make_profile(*args, **kwargs):
            profile = make_profile(*args, **kwargs)
            return dataclasses.replace(
                profile,
                **{part: tracer.wrap("trials.profile", getattr(profile, part))
                   for part in ("psi", "dpsi", "d2psi")},
            )
        return traced_make_profile

    for factory in ("gaussian_profile", "piecewise_power_profile"):
        original = getattr(trials, factory)
        originals.append((trials, factory, original))
        setattr(trials, factory, traced_profile(original))

    def uninstall():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
