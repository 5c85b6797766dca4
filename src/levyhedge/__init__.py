"""Jump-diffusion market simulation and optimal quadratic hedging in benchmark units.

The top-level API republishes the public names of four modules: each
module's ``__all__`` is the one list of them.  ``csv_format`` and
``verification`` are loaded only by the commands that use them.
"""

from .levy_core import *
from .market import *
from .hedging import *
from .sim_harness import *

__version__ = "0.1.0"
