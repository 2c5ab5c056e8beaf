"""Shared pytest plumbing: collect acceptance verdict lines for the summary,
count cocycle proofs, and set up child interpreters."""

import os
from pathlib import Path

import pytest

verdict_lines = []


def record_verdict(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}"
    verdict_lines.append(line)
    print(line)


@pytest.fixture
def cocycle_proofs(monkeypatch) -> list:
    """A list that gains one entry per run of the cocycle check, the proof
    validate_twist makes when a Twist is built."""
    import superfs.twists

    calls = []
    original = superfs.twists._check_cocycle
    monkeypatch.setattr(superfs.twists, "_check_cocycle",
                        lambda *args: calls.append(1) or original(*args))
    return calls


@pytest.fixture
def child_env() -> dict:
    """The environment of a child Python process that imports superfs from
    this checkout's src, whether or not PYTHONPATH is set: pytest's own
    pythonpath setting reaches only the pytest process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def pytest_terminal_summary(terminalreporter):
    if verdict_lines:
        terminalreporter.section("acceptance criteria")
        for line in verdict_lines:
            terminalreporter.write_line(line)
