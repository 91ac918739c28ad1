"""Implicit feature refinement: equilibrium mask-head refinement layers.

A refinement head's output feature is the fixed point of a weight-tied
double-residual block, solved forward with a "good Broyden" root finder and
differentiated backward through the implicit function theorem. Explicit
stacked and weight-shared unrolled baselines, convergence diagnostics, and a
synthetic mask-refinement training harness round out the package.

Every name is reached through its module, as `ifr.<module>.<name>`.
"""

from . import blocks, data, diagnostics, implicit, solver, training  # noqa: F401

__version__ = "0.1.0"
