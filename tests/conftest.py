"""Shared pytest plumbing: a private template cache for the whole run, and
the acceptance verdicts printed after it."""

import sys

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_template_cache(tmp_path_factory):
    """Point the on-disk template cache at a temporary directory, so no test
    reads or writes the user's cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("LONGEDGE_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
    yield
    patch.undo()


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, ok, took in sorted(verdicts):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"{status} criterion {number:2d} ({took:7.3f}s): {label}"
        )
