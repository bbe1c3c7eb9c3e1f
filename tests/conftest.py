"""Bookkeeping for the numbered acceptance criteria, and a deadline on
every test.

Tests in test_acceptance.py carry a ``criterion(num, title)`` marker; after
the run a summary section prints exactly one PASS/FAIL line per criterion
that was executed, with whatever measured detail the test attached.
"""

import signal

import pytest

# Far above the slowest test: a test that has not finished by then hangs.
TEST_DEADLINE_S = 300.0

_RESULTS: dict[int, dict] = {}

_DETAIL_KEY = pytest.StashKey()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): numbered acceptance criterion covered by this test"
    )


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that hangs, say in a fork pool that waits for a result
    that never comes, instead of hanging the suite: SIGALRM raises
    TimeoutError in the test's process, and the pool kills and reaps its
    workers on the way out."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"the test did not finish within {TEST_DEADLINE_S:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def criterion_detail(request):
    """Attach measured numbers to the criterion's summary line.

    Call it before asserting so a failing criterion still reports what it saw.
    """

    def _set(text: str) -> None:
        request.node.stash[_DETAIL_KEY] = text

    return _set


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and not report.passed:
        # fixture error or skip: the criterion was not demonstrated
        status = "FAIL"
    else:
        return
    _RESULTS[num] = {
        "title": title,
        "status": status,
        "detail": item.stash.get(_DETAIL_KEY, ""),
    }


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        entry = _RESULTS[num]
        line = f"{entry['status']} criterion {num}: {entry['title']}"
        if entry["detail"]:
            line += f" [{entry['detail']}]"
        terminalreporter.write_line(line)
