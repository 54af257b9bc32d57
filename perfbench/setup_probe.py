"""Print the seconds this fresh process takes to set revgraph up.

Set-up is importing the package and building the reference config, its
grids and their windows.  The benchmark runs this file in several fresh
processes and reports the median as ``setup_s``; interpreter start-up is
not included.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revgraph import cli, synthesis  # noqa: E402

spec = cli.default_spec()
windows = [synthesis.hann_window(grid) for grid in spec.grids]
print(repr(time.perf_counter() - start))
