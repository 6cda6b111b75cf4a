"""Exception hierarchy for the p2dyn laboratory.

All library errors derive from :class:`P2DynError` so callers can catch one
type.  Subclasses mark the distinct failure modes the tooling promises to
report instead of crashing.  A map is checked once, when it is built
(:class:`DegenerateMapError`); no evaluation of a built map raises one.
"""

from __future__ import annotations


class P2DynError(Exception):
    """Base class for all library errors."""


class DegenerateMapError(P2DynError):
    """A polynomial triple does not define an endomorphism.

    Raised when a map is built from zero components, inhomogeneous or
    non-finite coefficient tables, or a triple whose proven growth floor
    does not clear the degeneracy tolerance (a common zero, or too close
    to one); also for preimage counts that do not reach the squared degree.
    """


class CriticalPointError(P2DynError):
    """A differential-based quantity was requested on the critical set."""


class PreimageSolverError(P2DynError):
    """The preimage solver could not account for all d^2 preimages."""


class SamplingError(P2DynError):
    """Too many backward walkers failed to produce a valid sample, or a
    sample's exponents break the Briend-Duval bound of the measure."""


class OrbitInvariantError(P2DynError):
    """A backward orbit violates its consistency or clearance invariants."""


class FrameError(P2DynError):
    """Local frame construction failed (conditioning below threshold)."""


class ResolutionError(P2DynError):
    """A request is below grid resolution or outside the gridded domain."""


class InsufficientDataError(P2DynError):
    """A statistical estimate has too few samples or radii to be reported."""


class ConfigError(P2DynError):
    """Invalid experiment configuration or CLI usage."""
