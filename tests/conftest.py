"""Shared pytest plumbing: the acceptance-criteria summary block.

Tests marked @pytest.mark.criterion(n, "title") get one PASS/FAIL/XFAIL line
each at the end of the run, so the acceptance verdict is readable at a
glance without scrolling through the full -v listing.
"""

import pytest

_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): tag a test as one numbered acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or rep.when != "call":
        return
    num, title = marker.args
    if hasattr(rep, "wasxfail"):
        status = ("XFAIL (expected failure, see README, \"Scale and the "
                  "reachability wall\")"
                  if rep.skipped else "XPASS (unexpected pass)")
    elif rep.passed:
        status = "PASS"
    elif rep.failed:
        status = "FAIL"
    else:
        status = "SKIPPED"
    _RESULTS[num] = (title, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, status = _RESULTS[num]
        terminalreporter.write_line(f"criterion {num} ({title}): {status}")
