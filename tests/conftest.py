"""Shared fixtures, the hypothesis profile and the acceptance-criteria summary hook."""

import pytest
from hypothesis import settings

# property tests call numerical kernels whose first calls (imports, caches)
# are slow and whose timings vary on shared hosts; no example has a deadline
settings.register_profile("gkpstab", deadline=None)
settings.load_profile("gkpstab")

_CRITERIA = []


@pytest.fixture
def record_criterion():
    """Collect one pass/fail line per acceptance criterion."""

    def _record(name: str, passed: bool, detail: str = ""):
        _CRITERIA.append((name, bool(passed), detail))

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERIA:
        tag = "PASS" if passed else "FAIL"
        line = f"{tag} {name}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
