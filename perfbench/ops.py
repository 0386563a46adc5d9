"""The benchmark's three workloads: operations, expected outcomes, oracles.

An operation is one in-process ``symhardy.cli.main`` call for a single
grid point, writing to a scratch ``--out`` path, or one call into the
public ``fields`` functions.  Each operation carries the outcome it must
produce and a check of its output.  Both are fixed here, from closed
forms written out independently of the package, so a change to the
package cannot move the yardstick it is measured with.  The exact
separable quotients used as oracles for the quadrature rows do come from
the package, and are computed once, before any timing starts.

Outcome classes: ``ok`` (exit 0 and every check held), ``check_failed``
(exit 1, or exit 0 with an output the checks reject), ``named_error``
(exit 2 with an ``error:`` message, or a ``SymHardyError`` from a fields
call) and ``crash`` (any other exception or exit code).  An operation
fails when its outcome differs from the expected one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from symhardy import cli, fields, minimax
from symhardy.constants import FunctionClass, Params
from symhardy.errors import SymHardyError
from symhardy.polynomials import odd_linear, vandermonde
from symhardy.quadrature import separable_hardy_quotient, separable_rellich_quotient
from symhardy.trials import gaussian_trial

WORKLOADS = ("mc_verify", "radial_sweep", "certificate")

MC_SAMPLES = 200_000
FIELD_POINTS = 10_000
FIELD_TUBE = 0.02
GAP_TOL = 1e-5  # the CLI's default --gap-tol
ORACLE_SIGMAS = 4.0
SHARPNESS_DELTAS = (0.05, 0.02, 0.01)  # the CLI's default --delta grid

# Failures present when the benchmark was defined.  They are counted in
# ``failed`` like any other; an operation failing outside this list marks
# the run incorrect.
KNOWN_FAILURES = {
    # OverflowError from the power-law radial integrals.
    "sharpness/antisym/rellich/d4/eps0.05",
    "sharpness/antisym/rellich/d5/eps0.1",
    "sharpness/antisym/rellich/d5/eps0.05",
    "sharpness/antisym/hardy/d4/eps0.05",
    "sharpness/antisym/hardy/d5/eps0.1",
    "sharpness/antisym/hardy/d5/eps0.05",
    # The odd-class Rellich quotient misses its bracket (exit 1).
    "sharpness/odd/rellich/d3/eps0.2",
    "sharpness/odd/rellich/d3/eps0.1",
    "sharpness/odd/rellich/d4/eps0.2",
    # A finite quotient for a weighted mass that diverges at the origin;
    # the Monte Carlo engine refuses the same input.
    "verify-product/antisym/rellich/d2/p2/g0",
    "verify-product/odd/rellich/d2/p2/g0",
}

_CLASS = {"antisym": FunctionClass.ANTISYMMETRIC, "odd": FunctionClass.ODD}


# ---------------------------------------------------------------------------
# Closed forms, written in terms of the angular homogeneity lam so that
# they share no expression with the package's formulas.


def lam_of(klass, d):
    return d * (d - 1) / 2.0 if klass == "antisym" else 1.0


def hardy_base(klass, d, p, gamma):
    """4 ((p-2+gamma) lam + A^2) / p^2 with A = (d - p - gamma + 2 lam) / 2."""
    lam = lam_of(klass, d)
    a = (d - p - gamma + 2.0 * lam) / 2.0
    return 4.0 * ((p - 2.0 + gamma) * lam + a * a) / (p * p)


def hardy_constant(klass, d, p, gamma):
    return hardy_base(klass, d, p, gamma) ** (p / 2.0)


def rellich_numerator(klass, d, p, gamma):
    lam = lam_of(klass, d)
    return (gamma + 2.0 * p - 2.0) * (
        4.0 * (p - 1.0) * lam + p * (d - gamma - 2.0 * p)
    ) + (p - 1.0) * (d + 2.0 * lam - gamma - 2.0 * p) ** 2


def rellich_constant(klass, d, p, gamma):
    return (rellich_numerator(klass, d, p, gamma) / (p * p)) ** p


def general_constant(functional, d, p):
    """Unrestricted constants at gamma = 0 (classical Hardy, Rellich)."""
    if functional == "hardy":
        return (abs(d - p) / p) ** p
    return ((d - 2.0 * p) * (p - 1.0) * d / (p * p)) ** p


def expected_verify_outcome(klass, functional, d, p, gamma):
    """named_error where the reference constant is inadmissible or the
    weighted mass diverges at the origin, ok otherwise."""
    if functional == "hardy":
        admissible = hardy_base(klass, d, p, gamma) >= 0.0
        k = 1
    else:
        admissible = rellich_numerator(klass, d, p, gamma) >= 0.0
        k = 2
    mass_exponent = p * lam_of(klass, d) + d - k * p - gamma
    return "ok" if admissible and mass_exponent > 0.0 else "named_error"


def sharpness_bracket(klass, functional, d, eps):
    """(low, high, allowance width) of the near-extremal quotient."""
    lam = lam_of(klass, d)
    if functional == "rellich":
        s = d / 2.0 + lam
        lo = ((s - 2.0 - eps) * (s - eps)) ** 2
        hi = ((s - 2.0 + eps) * (s + eps)) ** 2
        return lo, hi, hi - lo
    limit = (d / 2.0 + lam - 1.0) ** 2
    return limit, math.inf, limit


# ---------------------------------------------------------------------------
# Operations.


@dataclass
class Result:
    outcome: str
    error: str = ""
    quotient: float = math.nan
    quotient_err: float = math.nan
    z: float = math.nan  # distance to the exact oracle in error bars
    gap: float = math.nan
    bytes_out: int = 0


@dataclass
class Op:
    id: str
    kind: str  # verify, sharpness, minimax, constants, field
    expected: str
    spec: dict = field(default_factory=dict)
    argv: list = field(default_factory=list)
    exact: float | None = None  # separable oracle, set by prepare()

    @property
    def known_failure(self):
        return self.id in KNOWN_FAILURES

    def prepare(self):
        """Compute the exact separable quotient where one exists."""
        s = self.spec
        if self.kind != "verify" or self.expected != "ok":
            return
        if s["functional"] == "hardy" and s["p"] != 2.0:
            return
        factor = vandermonde if s["class"] == "antisym" else odd_linear
        u = gaussian_trial(factor(s["d"]), 1.0)
        params = Params(s["d"], s["p"], s["gamma"], _CLASS[s["class"]])
        if s["functional"] == "hardy":
            self.exact = separable_hardy_quotient(u, params).quotient
        else:
            self.exact = separable_rellich_quotient(u, params).quotient

    def run(self, scratch):
        """Run once; ``scratch`` is a path prefix this op may write to."""
        try:
            if self.kind == "field":
                return self._run_field()
            return self._run_cli(scratch)
        except SymHardyError as exc:
            # The CLI turns package errors into exit 2; one escaping it crashed.
            outcome = "named_error" if self.kind == "field" else "crash"
            return Result(outcome, _describe(exc))
        except (Exception, SystemExit) as exc:
            return Result("crash", _describe(exc))

    def _run_cli(self, scratch):
        out = scratch + (".json" if self.kind == "minimax" else ".csv")
        written = [out, out + ".manifest.json", out + ".run.json"]
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([*self.argv, "--out", out])
        size = sum(os.path.getsize(p) for p in written if os.path.exists(p))
        if code == 2 and "error:" in err.getvalue():
            message = err.getvalue().split("error:", 1)[1].strip().splitlines()[0]
            return Result("named_error", message, bytes_out=size)
        if code == 1:
            return Result("check_failed", "exit 1", bytes_out=size)
        if code != 0:
            return Result("crash", f"exit {code}", bytes_out=size)
        result = getattr(self, "_check_" + self.kind)(_read_rows(out))
        result.bytes_out = size
        return result

    def _check_verify(self, rows):
        s = self.spec
        (row,) = rows
        q, q_err = float(row["quotient"]), float(row["quotient_err"])
        if s["functional"] == "hardy":
            ref = hardy_constant(s["class"], s["d"], s["p"], s["gamma"])
        else:
            ref = rellich_constant(s["class"], s["d"], s["p"], s["gamma"])
        result = Result("ok", quotient=q, quotient_err=q_err)
        if not (math.isfinite(q) and q_err > 0.0):
            result.outcome, result.error = "check_failed", "no finite quotient"
        elif abs(float(row["reference"]) - ref) > 1e-9 * max(1.0, ref):
            result.outcome, result.error = "check_failed", "wrong reference"
        elif q < ref - 2.0 * q_err:
            result.outcome, result.error = "check_failed", "quotient below constant"
        elif self.exact is not None:
            result.z = (q - self.exact) / q_err
            if abs(result.z) > ORACLE_SIGMAS:
                result.outcome = "check_failed"
                result.error = f"|z| = {abs(result.z):.2f} from the exact quotient"
        return result

    def _check_sharpness(self, rows):
        s = self.spec
        lo, hi, width = sharpness_bracket(s["class"], s["functional"], s["d"], s["eps"])
        deltas = tuple(float(r["delta"]) for r in rows)
        if deltas != SHARPNESS_DELTAS:
            return Result("check_failed", f"rows for delta {deltas}")
        for row in rows:
            q, allowance = float(row["quotient"]), float(row["delta"]) * width
            if not lo - allowance <= q <= hi + allowance:
                return Result("check_failed", f"quotient {q:.6g} outside bracket")
        return Result("ok")

    def _check_minimax(self, rows):
        s = self.spec
        (row,) = rows
        const = hardy_constant(s["class"], s["d"], s["p"], s["gamma"])
        gap = abs(float(row["value_numeric"]) - const)
        if gap > GAP_TOL:
            return Result("check_failed", f"gap {gap:.3g} to the class constant",
                          gap=gap)
        return Result("ok", gap=gap)

    def _check_constants(self, rows):
        if len(rows) != 24:
            return Result("check_failed", f"{len(rows)} rows")
        for row in rows:
            d, p, klass = int(row["d"]), float(row["p"]), row["class"]
            if klass == "general":
                want = general_constant(row["functional"], d, p)
            elif row["functional"] == "hardy":
                want = hardy_constant(klass, d, p, 0.0)
            else:
                want = rellich_constant(klass, d, p, 0.0)
            if abs(float(row["value"]) - want) > 1e-12 * max(1.0, abs(want)):
                return Result("check_failed", f"wrong value in {row}")
        return Result("ok")

    def _run_field(self):
        s = self.spec
        params = Params(s["d"], s["p"], s["gamma"], _CLASS[s["class"]])
        domain = fields.SectorDomain.for_params(params)
        rng = np.random.default_rng(s["rng"])
        X = domain.sample_interior(FIELD_POINTS, rng, tube=FIELD_TUBE)
        opt = minimax.closed_form_optimum(params)
        cert = fields.certificate_many(X, opt.alpha, opt.beta, params, domain.factor)
        const = hardy_constant(s["class"], s["d"], s["p"], s["gamma"])
        if len(cert) != FIELD_POINTS:
            return Result("check_failed", f"{len(cert)} certificate values")
        if not cert.min() >= const - 1e-8:
            return Result("check_failed", f"bound {cert.min():.12g} below {const:.12g}")
        return Result("ok")


def _describe(exc):
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"[:160]


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        if path.endswith(".json"):
            return json.load(handle)["rows"]
        return list(csv.DictReader(handle))


def _fmt(x):
    return f"{x:g}"


def build(workload, seed):
    """The workload's operations, in run order; inputs depend only on seed."""
    rng = random.Random(seed)
    ops = []
    if workload == "mc_verify":
        for functional in ("hardy", "rellich"):
            for klass in ("antisym", "odd"):
                for d in (3, 5):
                    for p in (2.0, 3.0):
                        for gamma in (0.0, 1.0):
                            ops.append(_verify_op("mc", klass, functional, d, p,
                                                  gamma, rng.randrange(2**31)))
    elif workload == "radial_sweep":
        for klass in ("antisym", "odd"):
            for functional in ("rellich", "hardy"):
                for d in (3, 4, 5):
                    for eps in (0.2, 0.1, 0.05):
                        ops.append(Op(
                            f"sharpness/{klass}/{functional}/d{d}/eps{_fmt(eps)}",
                            "sharpness", "ok",
                            {"class": klass, "functional": functional, "d": d,
                             "eps": eps},
                            ["sharpness", "--class", klass, "--functional",
                             functional, "--d", str(d), "--epsilon", _fmt(eps)],
                        ))
        for d in (2, 3):
            for klass in ("antisym", "odd"):
                for functional in ("hardy", "rellich"):
                    ops.append(_verify_op("product", klass, functional, d, 2.0,
                                          0.0, rng.randrange(2**31)))
    elif workload == "certificate":
        for klass in ("antisym", "odd"):
            for d in (2, 3, 4):
                for p in (2.5, 3.0, 4.0):
                    for gamma in (-1.0, 0.0, 1.0):
                        ops.append(Op(
                            f"minimax/{klass}/d{d}/p{_fmt(p)}/g{_fmt(gamma)}",
                            "minimax", "ok",
                            {"class": klass, "d": d, "p": p, "gamma": gamma},
                            ["minimax", "--class", klass, "--d", str(d),
                             "--p", _fmt(p), f"--gamma={_fmt(gamma)}"],
                        ))
        for klass in ("antisym", "odd"):
            for d in (2, 3):
                for p in (2.0, 3.0):
                    for gamma in (-1.0, 0.0, 1.0):
                        ops.append(Op(
                            f"field/{klass}/d{d}/p{_fmt(p)}/g{_fmt(gamma)}",
                            "field", "ok",
                            {"class": klass, "d": d, "p": p, "gamma": gamma,
                             "rng": [seed, len(ops)]},
                        ))
        ops.append(Op("constants/all", "constants", "ok", {},
                      ["constants", "--class", "all"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _verify_op(method, klass, functional, d, p, gamma, mc_seed):
    argv = ["verify", "--method", method, "--class", klass, "--functional",
            functional, "--d", str(d), "--p", _fmt(p), f"--gamma={_fmt(gamma)}",
            "--seed", str(mc_seed)]
    if method == "mc":
        argv += ["--samples", str(MC_SAMPLES)]
    return Op(
        f"verify-{method}/{klass}/{functional}/d{d}/p{_fmt(p)}/g{_fmt(gamma)}",
        "verify",
        expected_verify_outcome(klass, functional, d, p, gamma),
        {"class": klass, "functional": functional, "d": d, "p": p,
         "gamma": gamma},
        argv,
    )
