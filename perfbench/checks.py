"""Output checks run after the timed section.

Each check returns a list of failure messages, empty when the output is
right.  The checks compare the program against itself (pooled against
serial, shared solves against naive resampling, bounce slices against their
sum) or test invariants of every valid output (row counts, finite and
nonnegative power), so a change to the channel model cannot trip them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SPECTRUM_HEADER = "delay_s,power_linear,power_db"
IMPULSE_HEADER = "delay_s,h_re,h_im"


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    if len(lines) == 1:
        return np.empty((0, header.count(",") + 1))
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_exit_status(label: str, status: int) -> list[str]:
    return [] if status == 0 else [f"{label}: exit status {status}"]


def check_power(label: str, power, n_rows: int) -> list[str]:
    """``n_rows`` delay bins of finite, nonnegative power."""
    power = np.asarray(power, dtype=float)
    if power.shape != (n_rows,):
        return [f"{label}: {power.shape[0] if power.ndim else 0} rows, expected {n_rows}"]
    if not np.all(np.isfinite(power)):
        return [f"{label}: non-finite power"]
    if np.any(power < 0.0):
        return [f"{label}: negative power"]
    return []


def check_spectrum_csv(path, n_rows: int) -> list[str]:
    """A delay-power CSV with ``n_rows`` rows of finite, nonnegative power."""
    try:
        table = _read_csv(path, SPECTRUM_HEADER)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    return check_power(str(path), table[:, 1], n_rows)


def check_spectrum_dir(out_dir, prefix: str, n_files: int, n_rows: int) -> list[str]:
    """``out_dir`` holds ``n_files`` ``<prefix>_*.csv`` files that pass the CSV check."""
    paths = sorted(Path(out_dir).glob(f"{prefix}_*.csv"))
    failures = [] if len(paths) == n_files else [
        f"{out_dir}: {len(paths)} {prefix} CSVs, expected {n_files}"
    ]
    for path in paths:
        failures += check_spectrum_csv(path, n_rows)
    return failures


def check_validate_report(text: str, n_checks: int = 9) -> list[str]:
    """``revgraph validate`` printed that every check passed."""
    expected = f"{n_checks}/{n_checks} checks passed"
    lines = text.strip().splitlines()
    if not lines or lines[-1].strip() != expected:
        return [f"validate: last line {lines[-1:]!r}, expected {expected!r}"]
    return []


def check_dissect_additivity(out_dir, k_max: int, rtol: float = 1e-9) -> list[str]:
    """``0to{k}`` + ``{k+1}toinf`` = ``0toinf`` for every k below ``k_max``."""
    out_dir = Path(out_dir)
    try:
        whole = _impulse(out_dir / "dissect_0toinf.csv")
        failures = []
        scale = max(float(np.abs(whole).max()), 1e-300)
        for k in range(k_max):
            head = _impulse(out_dir / f"dissect_0to{k}.csv")
            tail = _impulse(out_dir / f"dissect_{k + 1}toinf.csv")
            if head.shape != whole.shape or tail.shape != whole.shape:
                failures.append(f"{out_dir}: dissect CSVs differ in length at k={k}")
                continue
            gap = float(np.abs(head + tail - whole).max())
            if not gap <= rtol * scale:
                failures.append(f"{out_dir}: 0to{k} + {k + 1}toinf misses 0toinf by {gap:.3g}")
        return failures
    except (OSError, ValueError) as exc:
        return [f"{out_dir}: {exc}"]


def _impulse(path: Path) -> np.ndarray:
    table = _read_csv(path, IMPULSE_HEADER)
    return table[:, 1] + 1j * table[:, 2]


def check_close(label: str, actual, expected, rtol: float) -> list[str]:
    """Arrays agree to ``rtol`` relative to the largest expected magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{label}: shape {actual.shape}, expected {expected.shape}"]
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    err = float(np.abs(actual - expected).max(initial=0.0)) / scale
    if not err <= rtol:
        return [f"{label}: relative deviation {err:.3g} exceeds {rtol:g}"]
    return []
