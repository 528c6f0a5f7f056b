"""Banded momentum-grid toolkit for metric operators of deformed non-Hermitian
oscillator models: operator algebra on truncated momentum grids, candidate
metric construction, quasi-Hermiticity verification, and a job-file CLI.

The package exports exactly the public names (``__all__``) of its modules.
"""
from . import gridops, jobs, metrics, models, verify
from ._version import __version__
from .gridops import *  # noqa: F401,F403
from .jobs import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *gridops.__all__,
    *jobs.__all__,
    *metrics.__all__,
    *models.__all__,
    *verify.__all__,
]
