"""Exception hierarchy shared across the package."""


class SkeinKitError(Exception):
    """Base class for all package errors."""


class ZeroPolynomialError(SkeinKitError):
    """Degree query on the zero polynomial (always an upstream engine bug)."""


class DiagramError(SkeinKitError):
    """Malformed diagram data or an invalid crossing/component reference."""


class BudgetExceededError(SkeinKitError):
    """A computation ran out of its budget: the skein engine's node or
    wall-clock budget, the bracket's ``STATE_BUDGET`` on live states, or the
    Hecke trace's ``MAX_STRANDS`` ceiling.

    Never a wrong polynomial.  The skein engine sets ``nodes`` and
    ``elapsed``; they are ``None`` for the bracket and Hecke budgets.
    ``args[0]`` is the bare reason; ``str()`` appends the nodes used and the
    seconds spent, when known.
    """

    def __init__(self, message, *, nodes=None, elapsed=None):
        super().__init__(message)
        self.nodes = nodes
        self.elapsed = elapsed

    def __str__(self) -> str:
        text = super().__str__()
        if self.nodes is not None:
            text += f" after {self.nodes} nodes"
        if self.elapsed is not None:
            text += f" in {self.elapsed:.3f} s"
        return text


class SelfCheckError(SkeinKitError):
    """A computed polynomial is zero or breaks the Morton bound or the
    exponent parity of its diagram, a HOMFLYPT value has no Jones
    specialization, or a constructed diagram has the wrong component count:
    an engine bug or a wrong cache entry."""


class CacheCorruptionError(SkeinKitError):
    """A memo entry would be overwritten with a different value, or a
    disk-cache line is not in the form ``save_cache`` writes."""
