import sys

import pytest

from signalmfg import Quadrature, casestudy
from signalmfg.equilibrium import SolverConfig, solve_mf_finite

# One line per acceptance criterion, echoed at the end of the run so the
# PASS/FAIL summary survives pytest's output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def quad128():
    return Quadrature.standard_normal()


@pytest.fixture(scope="session")
def ref_pop():
    return casestudy.reference_population()


@pytest.fixture(scope="session")
def ref_eq(ref_pop, quad128):
    return solve_mf_finite(ref_pop, quad128, SolverConfig())


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)``: a list that grows by one per call of ``module.name``, through every
    ``signalmfg`` module that holds that function."""

    def count(module, name: str) -> list:
        calls, original = [], getattr(module, name)
        wrapper = lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs)
        for held in [m for n, m in sys.modules.items() if n == "signalmfg" or n.startswith("signalmfg.")]:
            for attr, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, attr, wrapper)
        return calls

    return count
