"""Error types and argument checks shared across the solver modules."""


class NonConvergent(RuntimeError):
    """An iterative evaluation hit its iteration cap before meeting tolerance."""


class NoRootFound(RuntimeError):
    """A certified bracket held no sign change.

    Raised instead of returning a sentinel: the bracket's ends are proved to
    hold the lowest root, so a missing sign change signals a numerical or
    parameter problem the caller has to see.
    """


def check_dimension(n: int) -> None:
    """Raise ValueError unless n is an integer >= 2."""
    if int(n) != n or n < 2:
        raise ValueError("dimension must be an integer >= 2")


def check_degree(l: int) -> None:
    """Raise ValueError unless the harmonic degree l is an integer >= 0."""
    if int(l) != l or l < 0:
        raise ValueError("harmonic degree must be a nonnegative integer")
