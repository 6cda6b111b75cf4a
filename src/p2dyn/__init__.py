"""Numerical ergodic-theory laboratory for endomorphisms of the projective plane.

The package builds holomorphic self-maps of P^2 from homogeneous polynomial
triples and measures their equilibrium dynamics: escape-rate potentials,
backward-orbit sampling of the measure of maximal entropy, Lyapunov
exponents, expansion-adapted tangent frames, and slice measures, ball
masses and a mass certificate for the Green currents.  A zoo of maps with
known exponents and dimensions serves as the reference for each estimate.
"""

from __future__ import annotations

# bench/tests/test_bench.py asserts callable(p2dyn.preimages) (ROADMAP item 9)
from .preimages import preimages

__version__ = "0.1.0"

__all__ = ["preimages", "__version__"]
