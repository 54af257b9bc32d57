"""CSV text of float64 tables against ``repr``, byte for byte.

The formatter computes each value's shortest round-trip digits in numpy
blocks; every file it writes must equal the one a per-value ``repr`` writer
gives, for any bit pattern and any block boundary.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from revgraph import _csvtext

# Zeros and non-finite values of both signs (repr prints a negative NaN as
# "nan"); the two smallest subnormals, which Java's Schubfach widens to
# 4.9e-324 and 9.9e-324; both sides of the switches to exponent form below
# 1e-4 and from 1e16; three-digit exponents; integers near 2**53; 1e23, whose
# nearest double is below it; the largest subnormal, the smallest normal and
# the largest finite value.
EDGE_VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 1e-323, 1.5e-323, 2.5e-323, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1e-300, 1e100, 1e-100,
    1e-4, 0.00010000000000000002, 9.999999999999999e-05, 1e-5, 0.001234,
    1e16, 9999999999999998.0, 1e17, 1.5e16, 123456789012345.67,
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 54), 1e23, 1e22, 9.5e22,
    0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, 1.0, -1.0, 100.0, 0.5, 2.0 ** -1022,
]


def _reference(header, table):
    rows = [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join([header, *rows]) + "\n"


def _write_and_compare(tmp_path, table):
    path = tmp_path / "table.csv"
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    _csvtext.write_csv(path, header, table)
    assert path.read_text() == _reference(header, table)


def test_edge_values_match_repr(tmp_path):
    values = np.array(EDGE_VALUES)
    _write_and_compare(tmp_path, values[:, None])
    _write_and_compare(tmp_path, np.column_stack([values, values[::-1], -values]))


def test_random_bit_patterns_match_repr(tmp_path):
    # 1,000,002 patterns over every exponent, sign and significand.  The
    # three-column file's 200,000 rows leave a last block of 710 rows (blocks
    # of 1365); the one-column file's 400,002 values leave one of 2690.
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2 ** 64, size=1_000_002, dtype=np.uint64).view(np.float64)
    _write_and_compare(tmp_path, values[:600_000].reshape(-1, 3))
    _write_and_compare(tmp_path, values[600_000:, None])


def test_rows_wider_than_a_block_are_blocks_of_their_own(tmp_path):
    values = np.random.default_rng(5).normal(size=(3, 5000))
    _write_and_compare(tmp_path, values)


def test_import_builds_no_formatter_table():
    # The tables are built by the first write, so importing costs nothing.
    src = str(Path(_csvtext.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import revgraph\n"
        "from revgraph import _csvtext as m\n"
        "tables = (m._powers_of_ten, m._digit_words, m._templates)\n"
        "print(sum(t.cache_info().currsize for t in tables))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "0"
