"""Suite-wide set-up.

When a hypothesis test fails, hypothesis imports hypothesis.extra._patching to
print a patch for the failing example. That import pulls in libcst, whose
module code raises a DeprecationWarning (mypy_extensions.TypedDict). Under a
test module's filterwarnings("error") the warning becomes an exception inside
pytest's report hook, and pytest prints INTERNALERROR in place of the failure.
Importing the module once here, with that warning ignored, leaves every test's
own warning filters as they are and lets a failing example report as a failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
