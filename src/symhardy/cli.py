"""Command-line surface: constants tables, verification runs, sweeps.

Subcommands
-----------
constants   tabulate the closed-form constants over a (d, p, gamma) grid
verify      run Rayleigh-quotient checks for a trial family
minimax     compare the numeric max-min certificate value to closed form
sharpness   sweep the near-extremal family against the bracket

Every subcommand runs through ``main``'s one sweep: parse the grids, build
the manifest, compute the rows of each grid point, then emit them.

All data output is CSV (RFC 4180, header row, floats with 17 significant
digits) or JSON (a manifest header plus one object per row).  Reruns with
the same arguments and seed are byte-identical; the wall clock and the
per-check pass/fail summary therefore go to stderr, and to a sidecar
``<out>.run.json`` when ``--out`` is given, never into the data stream.
That report is written on every run, including one that ends in an
error, and then names the error's class and message.

Exit codes: 0 when every check held, 1 when a check failed, 2 on a named
error (one ``error:`` line on stderr, no data written), an ``--out`` that
cannot be written (the report goes to stderr only) or a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import lru_cache

from . import __version__
from .constants import (
    FunctionClass,
    Functional,
    Params,
    classical_hardy,
    hardy_antisymmetric,
    hardy_odd,
    rellich_antisymmetric,
    rellich_mitidieri,
    rellich_odd,
)
from .errors import SymHardyError, UsageError
from .minimax import numeric_minimax
from .polynomials import class_factor
from .quadrature import (
    QuadratureConfig,
    rayleigh_quotient,
    separable_hardy_quotient,
    separable_rellich_quotient,
)
from .trials import exponent_base, gaussian_trial, sharpness_family

SCHEMA_VERSION = 1


@dataclass
class Sweep:
    """What a subcommand contributes to the one sweep in ``main``.

    ``row(*point)`` returns the point's data rows and its check as a
    ``(name, passed)`` pair; a name that several points share passes only
    if it passes at each of them.
    """

    params: dict
    points: list
    row: Callable
    quadrature: dict | None = None
    seed: int | None = None


def _number(text):
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise UsageError(f"not a finite number: {text!r}")


def _whole_number(text):
    """An integer written plainly or in float notation, as ``1e6``."""
    value = _number(text)
    if not value.is_integer():
        raise UsageError(f"not a whole number: {text!r}")
    return int(value)


def _parse_int_grid(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(_whole_number(lo), _whole_number(hi) + 1))
        else:
            out.append(_whole_number(part))
    return out


def _parse_float_grid(text):
    return [_number(part) for part in text.split(",") if part.strip()]


def _dpg_grid(args, **params):
    """Parse the --d, --p and --gamma grids of ``args``.

    Returns the manifest params (the grids, the class, then ``params``)
    and the grid points in (d, p, gamma) order.
    """
    ds = _parse_int_grid(args.d)
    ps = _parse_float_grid(args.p)
    gammas = _parse_float_grid(args.gamma)
    params = {"d": ds, "p": ps, "gamma": gammas, "class": args.klass, **params}
    return params, list(itertools.product(ds, ps, gammas))


def _fmt(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _emit(rows, manifest, fmt, out_path):
    if fmt == "json":
        doc = {
            "manifest": manifest,
            "rows": [
                {c: _json_safe(v) for c, v in row.items()} for row in rows
            ],
        }
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        payload = buf.getvalue()
    if out_path:
        _write(out_path, payload)
        if fmt == "csv":
            _write(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(payload)
        if fmt == "csv":
            print(json.dumps({"manifest": manifest}), file=sys.stderr)


def _write(path, text):
    """Write the UTF-8 bytes of ``text`` to ``path``, line endings as given."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_run_report(args, manifest, checks, wall_clock, exit_code, error):
    report = {
        "manifest": manifest,
        "wall_clock_s": wall_clock,
        "checks": [{"name": name, "pass": ok} for name, ok in checks.items()],
        "exit_code": exit_code,
        "error": error,
    }
    if args.out:
        _write(args.out + ".run.json", json.dumps(report, indent=2) + "\n")


def _constants_row(d, p, gamma, klass):
    if klass is FunctionClass.ANTISYMMETRIC:
        hardy = hardy_antisymmetric(d, p, gamma)
        rellich = rellich_antisymmetric(d, p, gamma)
    elif klass is FunctionClass.ODD:
        hardy = hardy_odd(d, p, gamma)
        rellich = rellich_odd(d, p, gamma)
    else:
        hardy = classical_hardy(d, p, gamma)
        rellich = rellich_mitidieri(d, p, gamma)
    rows = []
    for functional, const, base in (
        ("hardy", hardy, classical_hardy(d, p, gamma)),
        ("rellich", rellich, rellich_mitidieri(d, p, gamma)),
    ):
        # No ratio against a classical constant that does not hold here.
        ratio = (math.nan if not base.admissible
                 else const.value / base.value if base.value > 0.0
                 else math.inf)
        rows.append(
            {
                "d": d,
                "p": p,
                "gamma": gamma,
                "class": klass.value,
                "functional": functional,
                "formula_id": const.formula_id,
                "value": const.value,
                "admissible": const.admissible,
                "classical_baseline": base.value,
                "improvement_ratio": ratio,
            }
        )
    return rows, ("constants", True)


def cmd_constants(args):
    params, grid = _dpg_grid(args)
    classes = (
        [FunctionClass.ANTISYMMETRIC, FunctionClass.ODD, FunctionClass.GENERAL]
        if args.klass == "all"
        else [FunctionClass(args.klass)]
    )
    points = [
        (d, p, gamma, klass)
        for (d, p, gamma), klass in itertools.product(grid, classes)
        if klass.tabulated(d, p)
    ]
    return Sweep(params, points, _constants_row)


def cmd_verify(args):
    klass = FunctionClass(args.klass)
    functional = Functional(args.functional)
    config = QuadratureConfig(
        method=args.method,
        samples=_whole_number(args.samples),
        seed=args.seed,
        r_min=args.r_min,
        r_max=args.r_max,
    )
    params, points = _dpg_grid(
        args, functional=args.functional, trial=args.trial, sigma=args.sigma
    )

    def row(d, p, gamma):
        problem = Params(d, p, gamma, klass)
        u = gaussian_trial(class_factor(klass, d), args.sigma)
        report = rayleigh_quotient(u, functional, problem, config)
        check = (f"{functional.value} d={d} p={p} gamma={gamma}",
                 not report.violation)
        return [
            {
                "d": d,
                "p": p,
                "gamma": gamma,
                "class": klass.value,
                "functional": functional.value,
                "trial": args.trial,
                "method": config.method,
                "samples": config.samples,
                "seed": config.seed,
                "numerator": report.numerator.value,
                "numerator_err": report.numerator.error,
                "denominator": report.denominator.value,
                "denominator_err": report.denominator.error,
                "quotient": report.quotient,
                "quotient_err": report.quotient_error,
                "reference": report.reference_constant,
                "margin_sigma": report.margin,
                "conclusive": report.conclusive,
            }
        ], check

    return Sweep(params, points, row, asdict(config), args.seed)


def cmd_minimax(args):
    klass = FunctionClass(args.klass)
    gap_tol = _number(args.gap_tol)
    if gap_tol <= 0.0:
        raise UsageError(f"--gap-tol must be positive, got {args.gap_tol!r}")
    params, points = _dpg_grid(args, gap_tol=gap_tol)

    def row(d, p, gamma):
        result = numeric_minimax(Params(d, p, gamma, klass))
        check = (f"minimax d={d} p={p} gamma={gamma}", result.gap <= gap_tol)
        return [
            {
                "d": d,
                "p": p,
                "gamma": gamma,
                "class": klass.value,
                "alpha_star": result.alpha_star,
                "beta_star": result.beta_star,
                "t_star": result.t_star,
                "value_numeric": result.value_numeric,
                "value_closed_form": result.value_closed_form,
                "gap": result.gap,
                "converged": result.converged,
            }
        ], check

    return Sweep(params, points, row)


def _sharpness_bracket(factor, epsilon):
    s = exponent_base(factor, 0)
    base = exponent_base(factor, 2)
    lo = ((base - epsilon) * (s - epsilon)) ** 2
    hi = ((base + epsilon) * (s + epsilon)) ** 2
    limit = (base * s) ** 2
    # Pure two-sided power quotient: equal-weight mean of the two
    # coefficient values (the family's delta -> 0 limit).
    a_in = abs((base - epsilon) * (s + epsilon)) ** 2
    b_out = abs((base + epsilon) * (s - epsilon)) ** 2
    pure = 0.5 * (a_in + b_out)
    return lo, hi, limit, pure


def cmd_sharpness(args):
    klass = FunctionClass(args.klass)
    d = _whole_number(args.d)
    rellich = args.functional == "rellich"
    factor = class_factor(klass, d)
    problem = Params(d, 2.0, 0.0, klass)
    epsilons = _parse_float_grid(args.epsilon)
    deltas = _parse_float_grid(args.delta)

    def row(eps, delta):
        u = sharpness_family(factor, eps, delta, functional=args.functional)
        if rellich:
            report = separable_rellich_quotient(u, problem)
            lo, hi, limit, pure = _sharpness_bracket(factor, eps)
        else:
            # One-sided Hardy check: the quotient is lam gamma plus a 1-D
            # weighted Hardy quotient whose infimum makes it the constant,
            # so the row claims only quotient >= constant.  The pure
            # two-sided value is constant + eps^2, so collar_correction is
            # the collar's share alone, below eps^2 delta.
            report = separable_hardy_quotient(u, problem)
            hardy = report.reference_constant
            lo, hi, limit, pure = hardy, math.inf, hardy, hardy + eps * eps
        width = hi - lo if math.isfinite(hi) else limit
        allowance = delta * width
        in_bracket = lo - allowance <= report.quotient <= hi + allowance
        return [
            {
                "d": d,
                "class": klass.value,
                "functional": args.functional,
                "heuristic": not rellich,
                "epsilon": eps,
                "delta": delta,
                "quotient": report.quotient,
                "bracket_low": lo,
                "bracket_high": hi,
                "limit_constant": limit,
                "collar_correction": abs(report.quotient - pure),
                "in_bracket": in_bracket,
            }
        ], (f"sharpness eps={eps} delta={delta}", in_bracket)

    return Sweep(
        {
            "d": d,
            "class": args.klass,
            "functional": args.functional,
            "epsilon": epsilons,
            "delta": deltas,
        },
        list(itertools.product(epsilons, deltas)),
        row,
    )


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symhardy",
        description="Hardy and Rellich constants, certificates and "
        "quadrature checks for antisymmetric and odd function classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def symmetry(p, choices, default):
        p.add_argument(
            "--class", dest="klass", choices=choices, default=default,
            help="antisym: u changes sign under every transposition of two "
            "coordinates; odd: u is odd under the reflection in the "
            "hyperplane sum x_k = 0, so u = 0 there (the class the p != 2 "
            "proofs cover); general: no symmetry",
        )

    pc = sub.add_parser("constants", help="tabulate closed-form constants")
    pc.add_argument("--d", default="2..5", help="e.g. 2..5 or 2,3,4")
    pc.add_argument("--p", default="2", help="e.g. 2,2.5,3")
    pc.add_argument("--gamma", default="0", help="e.g. -1,0,1 (use --gamma=-1)")
    symmetry(pc, ["antisym", "odd", "general", "all"], "all")
    common(pc)
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="Rayleigh-quotient verification runs")
    pv.add_argument("--d", default="2")
    pv.add_argument("--p", default="2")
    pv.add_argument("--gamma", default="0")
    symmetry(pv, ["antisym", "odd", "general"], "antisym")
    pv.add_argument("--functional", choices=["hardy", "rellich"], default="hardy")
    pv.add_argument("--trial", choices=["gaussian"], default="gaussian")
    pv.add_argument("--sigma", type=float, default=1.0)
    pv.add_argument("--samples", default="200000", help="e.g. 1e6")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--method", choices=["mc", "product"], default="mc")
    pv.add_argument("--r-min", type=float, default=1e-6)
    pv.add_argument("--r-max", type=float, default=40.0)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("minimax", help="numeric vs closed-form certificate")
    pm.add_argument("--d", default="2")
    pm.add_argument("--p", default="4")
    pm.add_argument("--gamma", default="0")
    symmetry(pm, ["antisym", "odd"], "antisym")
    pm.add_argument("--gap-tol", default="1e-5")
    common(pm)
    pm.set_defaults(func=cmd_minimax, format="json")

    ps = sub.add_parser("sharpness", help="near-extremal family sweep")
    ps.add_argument("--d", default="3")
    symmetry(ps, ["antisym", "odd"], "antisym")
    ps.add_argument("--functional", choices=["hardy", "rellich"],
                    default="rellich")
    ps.add_argument("--epsilon", default="0.2,0.1")
    ps.add_argument("--delta", default="0.05,0.02,0.01")
    common(ps)
    ps.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    manifest, rows, checks, error = None, [], {}, None
    try:
        sweep = args.func(args)
        if not sweep.points:
            raise UsageError("empty parameter grid")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "command": args.command,
            "seed": sweep.seed,
            "params": sweep.params,
            "quadrature": sweep.quadrature,
        }
        for point in sweep.points:
            point_rows, (name, ok) = sweep.row(*point)
            rows.extend(point_rows)
            checks[name] = checks.get(name, True) and ok
    except SymHardyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = {"class": type(exc).__name__, "message": str(exc)}
        exit_code = 2
    else:
        exit_code = 0 if all(checks.values()) else 1
    try:
        if error is None:
            _emit(rows, manifest, args.format, args.out)
        _write_run_report(args, manifest, checks, time.perf_counter() - start,
                          exit_code, error)
    except OSError as exc:
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror}",
              file=sys.stderr)
        exit_code = 2
    failed = sum(not ok for ok in checks.values())
    print(f"run: {args.command} wall_clock_s={time.perf_counter() - start:.3f} "
          f"checks_failed={failed}/{len(checks)}", file=sys.stderr)
    return exit_code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
