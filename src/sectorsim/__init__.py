"""Dense and factorised engines for an avalanche-photodiode model of
photon polarisation measurement, plus the sector-parameter observable
algebra used to analyse it."""

from . import avalanche, hilbert, measurement, sector
from .avalanche import *
from .hilbert import *
from .measurement import *
from .sector import *

__version__ = "0.1.0"

__all__ = avalanche.__all__ + hilbert.__all__ + measurement.__all__ + sector.__all__
