"""Exception types shared across the package."""


class GenusMismatchError(ValueError):
    """Operands live over surfaces of different genus."""


def _same_genus(x, y):
    """Raise GenusMismatchError unless x and y carry the same genus."""
    if x.genus != y.genus:
        raise GenusMismatchError(f"genus {x.genus} vs {y.genus}")


class TruncationError(ValueError):
    """A tensor operation needed degrees beyond the carried truncation."""


class DepthError(ValueError):
    """A Johnson-level operation was requested below the element's filtration depth."""


class JobError(ValueError):
    """A job document failed schema or invariant validation."""


class FixtureError(Exception):
    """The bundled fixture corpus is missing or unreadable."""
