"""Shared test configuration, the integrand_calls fixture and the acceptance summary hook."""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from snmlkit import quadrature, strategies

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def integrand_calls(monkeypatch):
    """Counts every integrand evaluation made through quadrature.integrate
    (``integrand_calls.count``).  The strategies caches are emptied first, so
    normalizers are computed afresh."""
    calls = SimpleNamespace(count=0)
    integrate = quadrature.integrate

    def counted(f, *args, **kwargs):
        def counted_f(x):
            calls.count += 1
            return f(x)

        return integrate(counted_f, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    strategies._snml_log_normalizer.cache_clear()
    strategies._jeffreys_posterior.cache_clear()
    return calls


# test_acceptance appends one line per criterion; printed after the run so the
# pass/fail record survives pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
