"""Exception types shared across the package.

Two broad families: configuration problems (bad method names, malformed config
files, out-of-range windows) and numerical failures detected at run time. The CLI
maps ConfigError to exit code 2 and NumericalError to exit code 3.
"""


class GlmStabError(Exception):
    """Base class for all package errors."""


class ConfigError(GlmStabError):
    """Invalid user-supplied configuration (unknown method, malformed JSON, ...)."""


class NumericalError(GlmStabError):
    """Base class for failures detected during numerical computation."""


class RankDeficient(NumericalError):
    """QR factorization hit a diagonal entry below the rank tolerance."""


class Singular(NumericalError):
    """Linear solve on a numerically singular matrix."""


class StageSingular(NumericalError):
    """The implicit stage system I - h*(C (x) I)*M_n is numerically singular."""


class NewtonDiverged(NumericalError):
    """Stage Newton iteration exceeded its iteration budget without converging."""


class NotStrictlyStable(NumericalError):
    """V fails strict stability (unit eigenvalue not simple, or extra modes on/outside
    the unit circle)."""


class DegenerateFit(NumericalError):
    """Too few usable samples for a least-squares decay fit (e.g. underflow)."""


class WindowOutOfRange(NumericalError):
    """An estimator window does not fit inside the available trail."""


class ZeroVector(NumericalError):
    """A vector trail was started from, or met, an exactly zero w vector."""


class QuadratureUnderResolved(NumericalError):
    """Panel doubling changed a quadrature result beyond the accuracy target."""


class OrthogonalityLost(NumericalError):
    """A continuously propagated frame drifted too far from orthonormality."""


class ParameterOutsideGap(NumericalError):
    """Requested scalar test parameters fall outside the method's stability gap."""
