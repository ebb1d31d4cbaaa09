"""Tier-1 time guard.

A test whose call phase runs longer than ``SLOW_TEST_SECONDS`` fails
unless it is marked ``@pytest.mark.slow``.  Slow tests still run in
every tier-1 pass; the mark only exempts them from the bound, so a
test that quietly grows past it shows up as a failure instead of a
longer suite.
"""

import pytest

SLOW_TEST_SECONDS = 5.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        f"slow: exempt from the {SLOW_TEST_SECONDS:g} s tier-1 time guard "
        "(the test still runs)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.passed
        and call.duration > SLOW_TEST_SECONDS
        and item.get_closest_marker("slow") is None
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"call phase took {call.duration:.1f} s, over the "
            f"{SLOW_TEST_SECONDS:g} s tier-1 bound: make the test "
            "faster or mark it @pytest.mark.slow"
        )
