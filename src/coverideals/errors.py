"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class CapacityError(RuntimeError):
    """A configured size or budget cap was exceeded.

    Raised instead of silently attempting a computation that would blow up
    (Taylor complexes past the generator cap, divisor boxes past their cell
    cap, exponent overflow, exhaustive scans past their intended range, and a
    search row whose degree components exceed the row budget).  The CLI
    exits with code 3.  The message names the cheaper route when one exists.
    """


class NotEquigeneratedError(ValueError):
    """An operation that requires all minimal generators to share one degree
    was called on an ideal where they do not."""
