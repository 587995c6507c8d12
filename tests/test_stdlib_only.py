"""The package runs on the Python standard library alone.

A subprocess blocks ``numpy`` (a ``None`` entry in ``sys.modules`` makes
every ``import numpy`` raise ``ImportError``), imports every ``repro``
module the way CI's import walk does, runs one ``Machine.run`` under the
``epoch`` engine, whose window signatures were numpy's last kernel, and
round-trips a ``.coltrace`` file, whose writer and reader were the other
numpy user.
"""

from __future__ import annotations

_SCRIPT = r"""
import sys

sys.modules["numpy"] = None

import importlib
import pkgutil
import tempfile
from pathlib import Path

import repro

failures = []
walk = pkgutil.walk_packages(repro.__path__, "repro.",
                             onerror=lambda name: failures.append(name))
for info in walk:
    if info.name == "repro.__main__":
        continue  # parses argv on import
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failures.append(f"{info.name}: {exc!r}")
assert not failures, failures

from repro.core.machine import Machine
from repro.workloads import load_workload
from repro.workloads.trace_io import open_trace, save_trace_columnar

workload = load_workload("mcf", refs=100_000)
result = Machine.for_workload("lightpc", workload, engine="epoch").run(workload)
assert result.epoch["windows_skipped"] > 0, result.epoch

records = list(load_workload("aes", refs=3_000).traces()[0])
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "aes.coltrace"
    assert save_trace_columnar(records, path) == len(records)
    trace = open_trace(path, shared=False)
    assert list(trace.window(0, trace.count)) == records
    assert list(trace.window(1_000, 2_345)) == records[1_000:2_345]
    trace.close()
print("ok")
"""


def test_runs_with_numpy_blocked(run_python):
    assert run_python(_SCRIPT).strip() == "ok"
