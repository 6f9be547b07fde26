"""Automated polarization compensation for fiber links.

The package covers the full chain used on the optical bench: Stokes and
Mueller algebra (:mod:`polcomp.stokes`), rotating-waveplate polarimetry
(:mod:`polcomp.polarimetry`), liquid-crystal retarder calibration
(:mod:`polcomp.lcvr`), the compensation loop itself
(:mod:`polcomp.compensation`), a virtual bench for repeatable trials
(:mod:`polcomp.bench`), and a deterministic CLI (:mod:`polcomp.cli`).
The package exports every public name of the five library modules; each
module's ``__all__`` is the one list of them.
"""

from . import bench, compensation, lcvr, polarimetry, stokes
from .bench import *  # noqa: F401,F403
from .compensation import *  # noqa: F401,F403
from .lcvr import *  # noqa: F401,F403
from .polarimetry import *  # noqa: F401,F403
from .stokes import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *stokes.__all__,
    *polarimetry.__all__,
    *lcvr.__all__,
    *compensation.__all__,
    *bench.__all__,
]
