import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"

if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def sample_corpus_path() -> Path:
    return DATA_DIR / "sample_news.jsonl"


_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        terminalreporter.write_line(f"{labels.get(outcome, outcome.upper())}  {name}")
