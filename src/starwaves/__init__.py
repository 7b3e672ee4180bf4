"""Singularly perturbed waves on star graphs.

Direct finite-difference solution, boundary-layer series construction, and
convergence verification for the wave equation on a star-shaped network
whose edge stiffness degenerates like an even power of a small parameter.

The package root exports only ``__version__``; the modules (``direct``,
``expansion``, ``harness``, ``cli``, ...) are the API.
"""

__version__ = "0.1.0"
