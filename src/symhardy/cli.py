"""Command-line surface: constants tables, verification runs, sweeps.

Subcommands
-----------
constants   tabulate the closed-form constants over a (d, p, gamma) grid
verify      run Rayleigh-quotient checks for a trial family
minimax     compare the numeric max-min certificate value to closed form
sharpness   sweep the near-extremal family against the bracket

All data output is CSV (RFC 4180, header row, floats with 17 significant
digits) or JSON (a manifest header plus one object per row).  Reruns with
the same arguments and seed are byte-identical; the wall clock and the
per-check pass/fail summary therefore go to stderr, and to a sidecar
``<out>.run.json`` when ``--out`` is given, never into the data stream.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

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
from .errors import SymHardyError
from .minimax import numeric_minimax
from .polynomials import constant_factor, odd_linear, vandermonde
from .quadrature import (
    QuadratureConfig,
    rayleigh_quotient,
    separable_hardy_quotient,
    separable_rellich_quotient,
)
from .trials import gaussian_trial, sharpness_family

SCHEMA_VERSION = 1

_CLASSES = {
    "antisym": FunctionClass.ANTISYMMETRIC,
    "odd": FunctionClass.ODD,
    "general": FunctionClass.GENERAL,
}


@dataclass
class RunManifest:
    command: str
    params: dict
    quadrature: dict | None
    seed: int | None
    version: str
    schema_version: int = SCHEMA_VERSION

    def as_dict(self):
        return {
            "schema_version": self.schema_version,
            "version": self.version,
            "command": self.command,
            "seed": self.seed,
            "params": self.params,
            "quadrature": self.quadrature,
        }


def _parse_int_grid(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _parse_float_grid(text):
    return [float(part) for part in text.split(",") if part.strip()]


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


def _emit(rows, columns, manifest, fmt, out_path):
    if fmt == "json":
        doc = {
            "manifest": manifest.as_dict(),
            "rows": [
                {c: _json_safe(row[c]) for c in columns} for row in rows
            ],
        }
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        payload = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        if fmt == "csv":
            with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
                json.dump(manifest.as_dict(), handle, indent=2)
                handle.write("\n")
    else:
        sys.stdout.write(payload)
        if fmt == "csv":
            print(json.dumps({"manifest": manifest.as_dict()}), file=sys.stderr)


def _write_run_report(out_path, manifest, checks, wall_clock, exit_code):
    report = {
        "manifest": manifest.as_dict(),
        "wall_clock_s": wall_clock,
        "checks": checks,
        "exit_code": exit_code,
    }
    if out_path:
        with open(out_path + ".run.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    print(
        f"run: {manifest.command} wall_clock_s={wall_clock:.3f} "
        f"checks_failed={sum(1 for c in checks if not c['pass'])}"
        f"/{len(checks)}",
        file=sys.stderr,
    )


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
    hardy_base = classical_hardy(d, p, gamma).value
    rellich_base = rellich_mitidieri(d, p, gamma).value
    rows = []
    for functional, const, base in (
        ("hardy", hardy, hardy_base),
        ("rellich", rellich, rellich_base),
    ):
        ratio = const.value / base if base > 0.0 else math.inf
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
                "classical_baseline": base,
                "improvement_ratio": ratio,
            }
        )
    return rows


def cmd_constants(args):
    ds = _parse_int_grid(args.d)
    ps = _parse_float_grid(args.p)
    gammas = _parse_float_grid(args.gamma)
    classes = (
        list(_CLASSES.values())
        if args.klass == "all"
        else [_CLASSES[args.klass]]
    )
    if not ds or not ps or not gammas:
        print("error: empty parameter grid", file=sys.stderr)
        return 2, None, []
    rows = []
    for d in ds:
        for p in ps:
            for gamma in gammas:
                for klass in classes:
                    if klass is FunctionClass.ANTISYMMETRIC and d < 2:
                        continue
                    if p < 2.0 and klass is not FunctionClass.GENERAL:
                        continue
                    rows.extend(_constants_row(d, p, gamma, klass))
    manifest = RunManifest(
        "constants",
        {"d": ds, "p": ps, "gamma": gammas, "class": args.klass},
        None,
        None,
        __version__,
    )
    columns = [
        "d",
        "p",
        "gamma",
        "class",
        "functional",
        "formula_id",
        "value",
        "admissible",
        "classical_baseline",
        "improvement_ratio",
    ]
    _emit(rows, columns, manifest, args.format, args.out)
    return 0, manifest, [{"name": "constants", "pass": True}]


def _make_trial(args, klass, d):
    if args.trial == "gaussian":
        if klass is FunctionClass.ANTISYMMETRIC:
            factor = vandermonde(d)
        elif klass is FunctionClass.ODD:
            factor = odd_linear(d)
        else:
            factor = constant_factor(d)
        return gaussian_trial(factor, args.sigma, class_tag=klass)
    raise SystemExit(f"error: unknown trial family {args.trial!r}")


def cmd_verify(args):
    klass = _CLASSES[args.klass]
    functional = Functional(args.functional)
    config = QuadratureConfig(
        method=args.method,
        samples=int(float(args.samples)),
        seed=args.seed,
        r_min=args.r_min,
        r_max=args.r_max,
    )
    rows = []
    checks = []
    exit_code = 0
    for d in _parse_int_grid(args.d):
        for p in _parse_float_grid(args.p):
            for gamma in _parse_float_grid(args.gamma):
                params = Params(d, p, gamma, klass)
                u = _make_trial(args, klass, d)
                try:
                    report = rayleigh_quotient(u, functional, params, config)
                except SymHardyError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2, None, []
                ok = not report.violation
                exit_code = exit_code or (0 if ok else 1)
                checks.append(
                    {
                        "name": f"{functional.value} d={d} p={p} gamma={gamma}",
                        "pass": ok,
                    }
                )
                rows.append(
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
                )
    manifest = RunManifest(
        "verify",
        {
            "d": _parse_int_grid(args.d),
            "p": _parse_float_grid(args.p),
            "gamma": _parse_float_grid(args.gamma),
            "class": args.klass,
            "functional": args.functional,
            "trial": args.trial,
            "sigma": args.sigma,
        },
        asdict(config),
        args.seed,
        __version__,
    )
    columns = list(rows[0].keys()) if rows else []
    _emit(rows, columns, manifest, args.format, args.out)
    return exit_code, manifest, checks


def cmd_minimax(args):
    klass = _CLASSES[args.klass]
    if klass is FunctionClass.GENERAL:
        raise SystemExit("error: minimax needs --class antisym or odd")
    rows = []
    checks = []
    exit_code = 0
    for d in _parse_int_grid(args.d):
        for p in _parse_float_grid(args.p):
            for gamma in _parse_float_grid(args.gamma):
                try:
                    params = Params(d, p, gamma, klass)
                    result = numeric_minimax(params)
                except SymHardyError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2, None, []
                ok = result.gap <= args.gap_tol
                exit_code = exit_code or (0 if ok else 1)
                checks.append(
                    {"name": f"minimax d={d} p={p} gamma={gamma}", "pass": ok}
                )
                rows.append(
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
                )
    manifest = RunManifest(
        "minimax",
        {
            "d": _parse_int_grid(args.d),
            "p": _parse_float_grid(args.p),
            "gamma": _parse_float_grid(args.gamma),
            "class": args.klass,
            "gap_tol": args.gap_tol,
        },
        None,
        None,
        __version__,
    )
    columns = list(rows[0].keys()) if rows else []
    _emit(rows, columns, manifest, args.format, args.out)
    return exit_code, manifest, checks


def _sharpness_bracket(d, lam, epsilon):
    s = d / 2.0 + lam
    base = s - 2.0
    lo = ((base - epsilon) * (s - epsilon)) ** 2
    hi = ((base + epsilon) * (s + epsilon)) ** 2
    limit = (base * s) ** 2
    # Pure two-sided power quotient: equal-weight mean of the two
    # coefficient values (the delta -> 0, no-cutoff limit).
    a_in = abs((base - epsilon) * (s + epsilon)) ** 2
    b_out = abs((base + epsilon) * (s - epsilon)) ** 2
    pure = 0.5 * (a_in + b_out)
    return lo, hi, limit, pure


def cmd_sharpness(args):
    klass = _CLASSES[args.klass]
    if klass is FunctionClass.GENERAL:
        raise SystemExit("error: sharpness needs --class antisym or odd")
    d = args.d
    factor = vandermonde(d) if klass is FunctionClass.ANTISYMMETRIC else odd_linear(d)
    lam = factor.homogeneity
    params = Params(d, 2.0, 0.0, klass)
    rows = []
    checks = []
    exit_code = 0
    for eps in _parse_float_grid(args.epsilon):
        if args.functional == "rellich":
            lo, hi, limit, pure = _sharpness_bracket(d, lam, eps)
            heuristic = False
        else:
            # One-sided Hardy check: the exponent family here is a heuristic
            # construction, so only quotient >= constant and the eps trend
            # (pure two-sided value is constant + eps^2) are claimed.
            limit = (
                hardy_antisymmetric(d, 2.0).value
                if klass is FunctionClass.ANTISYMMETRIC
                else hardy_odd(d, 2.0).value
            )
            lo, hi = limit, math.inf
            pure = limit + eps * eps
            heuristic = True
        for delta in _parse_float_grid(args.delta):
            try:
                u = sharpness_family(factor, eps, delta,
                                     functional=args.functional)
                report = (
                    separable_rellich_quotient(u, params)
                    if args.functional == "rellich"
                    else separable_hardy_quotient(u, params)
                )
            except SymHardyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2, None, []
            corr = abs(report.quotient - pure)
            width = hi - lo if math.isfinite(hi) else limit
            allowance = delta * width
            in_bracket = lo - allowance <= report.quotient <= hi + allowance
            exit_code = exit_code or (0 if in_bracket else 1)
            checks.append(
                {"name": f"sharpness eps={eps} delta={delta}", "pass": in_bracket}
            )
            rows.append(
                {
                    "d": d,
                    "class": klass.value,
                    "functional": args.functional,
                    "heuristic": heuristic,
                    "epsilon": eps,
                    "delta": delta,
                    "quotient": report.quotient,
                    "bracket_low": lo,
                    "bracket_high": hi,
                    "limit_constant": limit,
                    "collar_correction": corr,
                    "in_bracket": in_bracket,
                }
            )
    manifest = RunManifest(
        "sharpness",
        {
            "d": d,
            "class": args.klass,
            "functional": args.functional,
            "epsilon": _parse_float_grid(args.epsilon),
            "delta": _parse_float_grid(args.delta),
        },
        None,
        None,
        __version__,
    )
    columns = list(rows[0].keys()) if rows else []
    _emit(rows, columns, manifest, args.format, args.out)
    return exit_code, manifest, checks


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symhardy",
        description="Hardy and Rellich constants, certificates and "
        "quadrature checks for antisymmetric and odd function classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    pc = sub.add_parser("constants", help="tabulate closed-form constants")
    pc.add_argument("--d", default="2..5", help="e.g. 2..5 or 2,3,4")
    pc.add_argument("--p", default="2", help="e.g. 2,2.5,3")
    pc.add_argument("--gamma", default="0", help="e.g. -1,0,1 (use --gamma=-1)")
    pc.add_argument("--class", dest="klass",
                    choices=["antisym", "odd", "general", "all"], default="all")
    common(pc)
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="Rayleigh-quotient verification runs")
    pv.add_argument("--d", default="2")
    pv.add_argument("--p", default="2")
    pv.add_argument("--gamma", default="0")
    pv.add_argument("--class", dest="klass",
                    choices=["antisym", "odd", "general"], default="antisym")
    pv.add_argument("--functional", choices=["hardy", "rellich"], default="hardy")
    pv.add_argument("--trial", default="gaussian")
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
    pm.add_argument("--class", dest="klass",
                    choices=["antisym", "odd"], default="antisym")
    pm.add_argument("--gap-tol", type=float, default=1e-5)
    pm.set_defaults(format="json")
    pm.add_argument("--format", choices=["csv", "json"], default="json")
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_minimax)

    ps = sub.add_parser("sharpness", help="near-extremal family sweep")
    ps.add_argument("--d", type=int, default=3)
    ps.add_argument("--class", dest="klass",
                    choices=["antisym", "odd"], default="antisym")
    ps.add_argument("--functional", choices=["hardy", "rellich"],
                    default="rellich")
    ps.add_argument("--epsilon", default="0.2,0.1")
    ps.add_argument("--delta", default="0.05,0.02,0.01")
    common(ps)
    ps.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = args.func(args)
    exit_code, manifest, checks = result
    if manifest is not None:
        _write_run_report(args.out, manifest, checks,
                          time.perf_counter() - start, exit_code)
    return exit_code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
