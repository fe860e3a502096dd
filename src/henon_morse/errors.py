"""Exception types shared across the toolkit."""


class HenonMorseError(Exception):
    """Base class for all toolkit errors."""


class OverflowBlowUp(HenonMorseError):
    """IVP solution exceeded the blow-up guard before reaching the endpoint."""


class NoBracket(HenonMorseError):
    """Shooting could not bracket a boundary zero in the admissible amplitude range."""


class NoConverge(HenonMorseError):
    """An iterative solve (bisection refinement, Newton) stalled before tolerance."""


class DegenerateInput(HenonMorseError):
    """Input profile is degenerate for the requested operation (e.g. zero nonlinear mass)."""


class SingularPivot(HenonMorseError):
    """Symmetric factorization hit an (almost) exactly zero pivot.

    Signals an eigenvalue at machine zero; ``pencil.count_below`` retries at
    shifts nudged past the zero-pivot band before it raises this.
    """


class MeshTooCoarse(HenonMorseError):
    """A discretization too coarse for its horizon; kept as a public name, raised nowhere."""


class HypothesisViolated(HenonMorseError):
    """Parameter regime falls outside the hypotheses of the requested estimate."""


class NonTermination(HenonMorseError):
    """A provably finite iteration exceeded its a-priori step bound (grid/metric bug)."""
