"""Desk-scale certification toolkit for conformal curvature cone problems.

Modules:
  cones       -- elementary symmetric functions, Garding cones, curvature functions
  conformal   -- chart metrics, Schouten/Ricci transformations, relative eigenvalues
  bubbles     -- standard bubbles, stereographic factor, blow-up rescaling
  barriers    -- radial sub/super-solution sweeps, eigenvalue-continuity pairing
  comparison  -- distance bound, model ball volumes, volume-ratio monotonicity
  solver      -- radial Newton continuation on the round sphere
  cli         -- configuration-driven verification campaigns
"""

from .cones import ConeSpec, CurvatureFunction, sigma_k
from .errors import BrokenConeError, ConeExitError, ContinuationError, DomainError

__version__ = "0.1.0"

__all__ = [
    "ConeSpec",
    "CurvatureFunction",
    "sigma_k",
    "DomainError",
    "ConeExitError",
    "ContinuationError",
    "BrokenConeError",
    "__version__",
]
