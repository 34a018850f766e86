"""Ring-down quality-factor measurement toolkit.

Closed-form models of an underdamped resonator's ring-down, the
pseudo-period-counting Q measurement in ideal and behavioral-circuit
form, error-budget sweeps, and ingestion of sampled waveforms with an
independent log-decrement cross-check.
"""

from . import analysis, charts, circuit, counting, resonator, tables, waveform_io
from .analysis import *  # noqa: F403
from .charts import *  # noqa: F403
from .circuit import *  # noqa: F403
from .counting import *  # noqa: F403
from .resonator import *  # noqa: F403
from .tables import *  # noqa: F403
from .waveform_io import *  # noqa: F403

__version__ = "0.1.0"

# every module lists its public names; the package re-exports them all
__all__ = sorted(
    name
    for module in (analysis, charts, circuit, counting, resonator, tables, waveform_io)
    for name in module.__all__
)
