import _thread
import signal
import threading
import time

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


@pytest.fixture
def interrupt_when_running(monkeypatch, default_sigint):
    """``arm(module, jobs)`` wraps ``module.check_stopped`` so that
    ``_thread.interrupt_main()`` fires once ``jobs`` threads have each passed
    checkpoint 2 (a rollout's step, a blend fit's iteration), so the Ctrl-C
    always lands while those jobs run. It returns a list that receives the
    ``time.perf_counter()`` of the moment it fires."""

    def arm(module, jobs: int) -> list[float]:
        fired, passed, lock = [], set(), threading.Lock()
        check = module.check_stopped

        def checked(message, index):
            if index > 2 and not fired:
                with lock:
                    passed.add(threading.current_thread())
                    if len(passed) == jobs and not fired:
                        fired.append(time.perf_counter())
                        _thread.interrupt_main()
            check(message, index)

        monkeypatch.setattr(module, "check_stopped", checked)
        return fired

    return arm
