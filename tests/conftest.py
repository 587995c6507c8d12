"""Fixtures shared across test modules."""

import pytest

from repro.workloads import TraceGenerator


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
