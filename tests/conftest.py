"""Fixtures shared across test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import TraceGenerator

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def generated(monkeypatch):
    """The identity ``(profile, seed, base_address, footprint_limit,
    count)`` of every stream ``TraceGenerator.records`` generates."""
    calls = []
    original = TraceGenerator.records

    def records(self, count):
        calls.append((self.profile, self.seed, self.base_address,
                      self.footprint_limit, count))
        return original(self, count)

    monkeypatch.setattr(TraceGenerator, "records", records)
    return calls


@pytest.fixture
def run_python():
    """Run a script in a fresh interpreter that imports this checkout's
    ``repro``, with extra environment variables; its stdout, or a
    failed test showing its stderr."""
    def run(script: str, **env: str) -> str:
        env = dict(os.environ, **env)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
