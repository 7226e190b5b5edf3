"""AMG-preconditioned conjugate gradients with Chebyshev polynomial smoothers.

The library covers the full pipeline: sparse kernels (``sparse``), the
offline minimax optimization of the smoother parameters and the closed form
of Lambda_k (``optimize``), the runtime smoother kernels (``smoothers``),
aggregation-based AMG hierarchies (``amg``), the PCG solver (``krylov``),
benchmark problem generators (``problems``), and a reproducible experiment
CLI (``cli``).  The dense theory oracles the tests compare against live in
``tests/oracles.py``.  The package root re-exports nothing: each name is
imported from its submodule, as in ``from amgpoly.amg import build_hierarchy``.
"""

__version__ = "0.1.0"
