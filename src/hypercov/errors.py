"""Exception types shared across the package, one per refusal exit code.

The CLI maps them onto process exit codes: a StructuralError is a usage
problem (exit 2), a GuardExceededError a work, memory or cap refusal
(exit 3).
"""


class HypercovError(Exception):
    """Base class for all package errors."""


class StructuralError(HypercovError, ValueError):
    """Malformed or unsupported input: bad dimensions, out-of-range
    entries, a mode combination that is not defined, or an operation the
    design spec cannot do (e.g. no coarse base p)."""


class GuardExceededError(HypercovError, RuntimeError):
    """A work, memory or fixed cap would be exceeded; the request is
    refused, and the message may point at the alternative."""
