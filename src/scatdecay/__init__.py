"""Wavelet scattering on the circle with certified layer-energy decay.

The package is organized around one pipeline:

1. build a dyadic filter bank from a mother wavelet (:mod:`scatdecay.filterbank`),
2. certify it (Littlewood-Paley, asymmetry, vanishing order) and extract the
   decay constants ``c, C, a, r`` (:mod:`scatdecay.decay`),
3. run the scattering transform (:mod:`scatdecay.scattering`) and compare
   measured layer energies against the certified geometric bound,
4. optionally do the same in expectation for stationary inputs
   (:mod:`scatdecay.stationary`).

Everything operates on power-of-two grids over one period with the
centered, unitary-in-energy transform conventions of :mod:`scatdecay.signals`.
"""

from . import decay, errors, filterbank, scattering, signals, stationary
from .decay import *
from .errors import *
from .filterbank import *
from .scattering import *
from .signals import *
from .stationary import *

__version__ = "0.1.0"

# each module's ``__all__`` is its public API; the package re-exports all of them
__all__ = (decay.__all__ + errors.__all__ + filterbank.__all__ + scattering.__all__
           + signals.__all__ + stationary.__all__)
