"""Shared test fixtures: an analytic retardance profile and sweeps built
from it with the explicit crossed-polarizer formula, independent of the
package's own sweep generator."""

import math

import numpy as np
import pytest

from polcomp.bench import synthetic_curve_set
from polcomp.lcvr import CharacterizationSweep, RetardanceCurve

TOP = 2.3 * math.pi
BOTTOM = 0.2 * math.pi
V_LO, V_HI = 0.1, 16.0


def _shape(v):
    return 1.0 / (1.0 + (np.asarray(v, dtype=float) / 2.0) ** 2.2)


def profile(v):
    """Ground-truth retardance vs drive voltage: strictly decreasing,
    spanning 2.3*pi down to 0.2*pi like a real full-wave cell."""
    return BOTTOM + (TOP - BOTTOM) * (_shape(v) - _shape(V_HI)) / (_shape(V_LO) - _shape(V_HI))


def voltage_at(delta):
    """Invert the profile by bisection (it is strictly decreasing)."""
    lo, hi = V_LO, V_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if profile(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_from_profile(grid, pd_sigma=0.0, n_repeats=10, seed=0):
    """Crossed-polarizer sweep of the profile: V_pd = (1 - cos(delta)) / 2.

    Written out directly here so curve-building tests do not depend on
    the package's own sweep simulator.
    """
    grid = np.asarray(grid, dtype=float)
    clean = (1.0 - np.cos(profile(grid))) / 2.0
    if pd_sigma > 0.0:
        rng = np.random.default_rng(seed)
        reads = clean[None, :] + rng.normal(0.0, pd_sigma, (n_repeats, grid.size))
        return CharacterizationSweep(
            drive_voltages=grid,
            mean_pd_voltages=reads.mean(axis=0),
            pd_voltage_sems=np.full(grid.size, pd_sigma / math.sqrt(n_repeats)),
            background_voltage=0.0,
            background_sem=pd_sigma / math.sqrt(n_repeats),
        )
    return CharacterizationSweep(
        drive_voltages=grid,
        mean_pd_voltages=clean,
        pd_voltage_sems=np.zeros(grid.size),
        background_voltage=0.0,
    )


@pytest.fixture(scope="session")
def drive_grid():
    # 0.01 V grid plus the exact half-wave voltage: the sweep maximum is
    # then the true peak, so the arccos inversion carries no grid bias.
    grid = np.arange(V_LO, V_HI + 0.005, 0.01)
    return np.unique(np.concatenate([grid, [voltage_at(math.pi)]]))


@pytest.fixture(scope="session")
def clean_sweep(drive_grid):
    return sweep_from_profile(drive_grid)


def rescaled_curve_set(n, lo, hi):
    """The synthetic set with each curve mapped linearly onto ``[lo, hi]``."""
    out = []
    for c in synthetic_curve_set(n):
        r = c.retardances
        scaled = lo + (hi - lo) * (r - r.min()) / (r.max() - r.min())
        out.append(RetardanceCurve(c.drive_voltages, scaled, c.retardance_errors))
    return out


@pytest.fixture(scope="session")
def noisy_sweep(drive_grid):
    # 0.5% full-scale photodiode noise averaged over 10 reads.
    return sweep_from_profile(drive_grid, pd_sigma=0.005, n_repeats=10, seed=8)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines into the run summary."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
