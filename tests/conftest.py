import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in sorted(lines):
            terminalreporter.line(line)


@pytest.fixture
def geometry_builds(monkeypatch):
    """The arguments of every `harness.build_geometry` call the test makes."""
    from pcdoa import harness

    calls = []
    build = harness.build_geometry

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_geometry", counting)
    return calls
