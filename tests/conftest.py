import pytest
from hypothesis import settings

# property tests draw the same examples on every run and never fail on a
# slow host
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(_acceptance_lines)):
            terminalreporter.write_line(line)
