import signal

import numpy as np
import pytest

from hedgeblend.accounting import CostSpec
from hedgeblend.market import CALIBRATIONS, PathGrid, simulate_heston

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {status}  {description}" + (f"  ({detail})" if detail else "")
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def baseline():
    return CALIBRATIONS["baseline"]


@pytest.fixture(scope="session")
def grid():
    return PathGrid(n_steps=126, maturity=0.5)


@pytest.fixture(scope="session")
def small_grid():
    return PathGrid(n_steps=16, maturity=0.5)


@pytest.fixture(scope="session")
def cost():
    return CostSpec(5e-4)


@pytest.fixture(scope="session")
def baseline_paths(baseline, grid):
    """A modest shared batch of baseline Heston paths."""
    return simulate_heston(baseline, grid, 2000, seed=314)


@pytest.fixture(scope="session")
def small_paths(baseline, small_grid):
    return simulate_heston(baseline, small_grid, 64, seed=99)


@pytest.fixture
def rng_np():
    return np.random.default_rng(12345)


@pytest.fixture
def default_sigint():
    """Python's default SIGINT handler while the test runs, so that
    ``_thread.interrupt_main`` raises KeyboardInterrupt even when pytest was
    started with SIGINT ignored (as a job started with ``&`` from a
    non-interactive shell is); the previous handler is restored after."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)
