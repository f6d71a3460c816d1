"""Exception types shared across the package.

The CLI maps these onto process exit codes: structural and mode errors
are usage problems (exit 2), guard and cap violations are resource
refusals (exit 3).
"""


class HypercovError(Exception):
    """Base class for all package errors."""


class StructuralError(HypercovError, ValueError):
    """Malformed input: bad dimensions, out-of-range entries, bad shapes."""


class UnsupportedSpecError(HypercovError, ValueError):
    """Operation needs a capability the design spec does not have (e.g. no coarse base p)."""


class InvalidModeError(HypercovError, ValueError):
    """Mode combination that is not defined (e.g. closed-form full coverage)."""


class GuardExceededError(HypercovError, RuntimeError):
    """A work or memory guard would be exceeded; the request is refused."""


class CapExceededError(GuardExceededError):
    """A fixed cap was exceeded; the message points at the alternative."""
