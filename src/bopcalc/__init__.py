"""Homology and homotopy bookkeeping for the BoP Omega spectrum.

The package turns the additive structure of the spaces in the Omega
spectra for BoP and its relatives (BP, truncated BP, bu, bo) into exact
integer computations: truncated power series for graded dimensions,
generator tables for single-parity homology, a rank rule and a spectral
sequence walk for solving the tower, the stable splitting identities,
and an experimental lab for the conjectured cohomology of the truncated
analogues.  Everything is exact; there are no floats anywhere.

Each library module's ``__all__`` is its one export list, and the
package re-exports every name in it.
"""

from .algebra import *
from .catalog import *
from .conjecture import *
from .errors import *
from .reports import *
from .series import *
from .splitting import *
from .towers import *

__version__ = "0.1.0"
