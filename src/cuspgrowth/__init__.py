"""Computable volume growth for pinched negatively curved cusped spaces.

The package models cusp decay profiles piecewise-analytically, evaluates
horospherical areas and their renewal-type integrals in the log domain,
estimates critical exponents and growth types from sampled log data,
assembles counting/volume envelopes by discrete log-convolution, and
cross-checks everything against an exact arithmetic lattice acting on the
hyperbolic plane.
"""

__version__ = "0.1.0"
