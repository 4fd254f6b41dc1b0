"""Strictly stable general linear methods and spectral stability diagnostics.

Fixed-step GLM integration of nonautonomous linear (and small nonlinear) ODEs,
extraction of the underlying one-step behavior via the eigenvalue-1 spectral
projection of the method's V matrix, and Lyapunov / Sacker-Sell exponent
estimation from discrete QR trails.

The package namespace imports nothing: use the submodules, as in
``from glmstab import glm, onestep, spectra``.
"""

__version__ = "0.1.0"
