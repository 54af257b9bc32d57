"""Reverberant radio channels simulated on directed propagation graphs.

Transmitters, receivers, and point scatterers form the vertices of a
directed graph; edges carry gain, phase, and delay.  The end-to-end
transfer matrix sums every signal walk through the graph and has a closed
form whenever the scatterer-to-scatterer loop contracts.  On top of that
core sit a stochastic room scenario, frequency sampling with windowed
inverse transforms, and a command-line driver for ensemble and spatial
Monte Carlo studies.

The package's public names are those of its modules: each of ``graph``,
``transfer``, ``scenario`` and ``synthesis`` lists its own in ``__all__``,
and ``revgraph.__all__`` is their ordered union without repeats.
"""

from . import graph, scenario, synthesis, transfer
from .graph import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .synthesis import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__all__ = list(
    dict.fromkeys(
        name for module in (graph, transfer, scenario, synthesis) for name in module.__all__
    )
)
