"""Radial solves, Morse indices and half-line stability checks on the unit ball.

The modules (``radial_bvp``, ``spectral``, ``halfline``, ``liouville``,
``pencil``, ``nonlinearity``, ``io``, ``cli``) are the Python API; the package
root re-exports only the error types.
"""

from .errors import (
    DegenerateInput,
    HenonMorseError,
    HypothesisViolated,
    NoBracket,
    NoConverge,
    NonTermination,
    OverflowBlowUp,
    SingularPivot,
)

__version__ = "0.1.0"
