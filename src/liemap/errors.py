"""Errors of maps, sl2 and the dominancy witnesses; the CLI prints their names."""


class MapsError(ValueError):
    pass


class CostGuardError(MapsError):
    """Exact mode refused: arity or degree beyond the configured guard."""


class ScanBudgetError(MapsError):
    """Exhaustive enumeration would exceed the configured budget."""


class InvalidBudgetError(MapsError):
    """A scan budget (LIEMAP_BUDGET or a budget argument) that is not a
    positive integer."""


class InvalidSampleCountError(MapsError):
    """A sampled scan's sample_count below 1."""
