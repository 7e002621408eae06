"""Bivariate order polynomials of bicolored posets and bivariate
chromatic polynomials of graphs, in exact rational arithmetic, with
brute-force oracles and reciprocity checks.

Each module lists its public names in its own __all__; this package
re-exports them all and adds nothing of its own but __version__."""

from .ratpoly import *
from .poset import *
from .orderpoly import *
from .graph import *
from .chrompoly import *
from .brute import *
from .verify import *
from .fixtures import *
from . import brute, chrompoly, fixtures, graph, orderpoly, poset, ratpoly, verify

__version__ = "0.1.0"

__all__ = [
    *ratpoly.__all__, *poset.__all__, *orderpoly.__all__, *graph.__all__,
    *chrompoly.__all__, *brute.__all__, *verify.__all__, *fixtures.__all__,
]
