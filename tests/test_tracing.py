"""The benchmark tracer's patch points exist, and uninstalling restores them.

``perfbench/tracing.py`` wraps package functions by name; a renamed or
deleted name makes ``install`` fail.  It is loaded by path, as the
benchmark runs it, and only installed and uninstalled here.
"""

import importlib.util
from pathlib import Path

from symhardy import cli, fields, minimax, polynomials, quadrature, trials

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owners():
    """The package modules the tracer imports, and every class they define."""
    out = []
    for module in (cli, fields, minimax, polynomials, quadrature, trials):
        out.append(module)
        out.extend(v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__)
    return out


def snapshot():
    return {owner: dict(vars(owner)) for owner in owners()}


def test_install_patches_every_point_and_uninstall_restores_it():
    tracing = load_tracing()
    before = snapshot()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = snapshot()
    finally:
        uninstall()
    after = snapshot()

    patched = {}
    for owner, attrs in before.items():
        assert during[owner].keys() == attrs.keys(), owner
        for name, original in attrs.items():
            if during[owner][name] is not original:
                patched[owner, name] = original
                # Each wrapper wraps what it replaced.
                assert during[owner][name].__wrapped__ is original, (owner, name)
    names = {name for _, name in patched}
    assert {"main", "rayleigh_quotient", "mc_integral", "product_integral",
            "quad", "angular_moment", "reference_constant", "min_over_t",
            "numeric_minimax", "sample_interior", "certificate_many", "value",
            "gradient", "laplacian", "gaussian_profile",
            "piecewise_power_profile", *tracing.CONSTANT_FUNCTIONS} <= names

    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, original in attrs.items():
            assert after[owner][name] is original, (owner, name)
