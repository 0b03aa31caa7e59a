"""Prints one status line per acceptance criterion after the run, fails a
test that leaves a child process unreaped, and loads scripts outside the
package (bench/, tools/) as modules."""

import importlib.util
import os
import re
import sys

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")
_outcomes = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.match(report.nodeid.split("::")[-1])
    if match is None:
        return
    num = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _outcomes[num] = (report.outcome, report.nodeid.split("::")[-1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        outcome, name = _outcomes[num]
        status = "PASS" if outcome == "passed" else outcome.upper().replace("FAILED", "FAIL")
        label = name.replace(f"test_criterion_{num:02d}_", "").replace("_", " ")
        terminalreporter.write_line(f"criterion {num:02d}: {status} - {label}")


@pytest.fixture(autouse=True)
def _no_unreaped_child():
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} exited with wait status {status}"
    pytest.fail(f"test left a child process unreaped ({state})")


@pytest.fixture
def load_module(monkeypatch):
    """load(name, path): the file at path run as module `name`, registered in
    sys.modules under that name until the test ends."""

    def load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load
