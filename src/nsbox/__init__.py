"""Exact-rational toolkit for two-input no-signaling boxes.

States the box polytope as labeled constraint rows, generates its closed-form
extremal boxes, and computes exact optima of Hardy-type paradox arguments
over no-signaling and local-realistic models, all in ``fractions.Fraction``
arithmetic with zero numerical error.
"""

# Each module's __all__ is the one declaration of its public names.
from .rationals import *
from .lp import *
from .boxes import *
from .vertices import *
from .hardy import *

__version__ = "0.1.0"
