"""Hardy and Rellich inequalities on antisymmetric and odd function classes.

The package evaluates every closed-form constant, reproduces the
certificate optimization behind them, and verifies the inequalities by
quadrature of Rayleigh quotients over explicit trial families.
"""

__version__ = "0.1.0"
