"""Exact averaged characters of two-row symmetric group shapes at short cycles.

The package computes, in exact rational arithmetic, the average of the
irreducible character of shape [N - k, k] over a coset of the subgroup
preserving three consecutive blocks of [1, N], evaluated at the identity and
at embedded 2- and 3-cycles, together with two brute-force oracles that
recompute every value independently.

Its public names are those each module lists in its own ``__all__``.
"""
from . import characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle
from .characters import *  # noqa: F403
from .closed_form import *  # noqa: F403
from .core import *  # noqa: F403
from .eigsum import *  # noqa: F403
from .hahn import *  # noqa: F403
from .invariant_calculus import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle)
    for name in module.__all__
)
