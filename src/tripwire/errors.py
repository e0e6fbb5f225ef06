"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateCellError(ValueError):
    """A polygon cell has (numerically) zero area or too few distinct vertices."""


class InvalidPerturbationError(ValueError):
    """A line perturbation makes two lines cross inside the open unit square."""
