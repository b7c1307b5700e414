"""Exact Stirling cycle numbers and closed-form p-adic valuation oracles.

The package computes unsigned Stirling numbers of the first kind (and a
shifted variant) with exact big-integer arithmetic, evaluates closed-form
p-adic valuations of s(a*p^n, t) in O(1), and differentially verifies every
closed form against brute-force computation.
"""

from . import bigmath, errors, oracles, padic, verify
from .bigmath import *
from .errors import *
from .oracles import *
from .padic import *
from .verify import *

__version__ = "0.1.0"

# a public name is declared once, in its module's __all__, and republished here
__all__ = [*bigmath.__all__, *errors.__all__, *oracles.__all__, *padic.__all__, *verify.__all__]
