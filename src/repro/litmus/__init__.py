"""Crash-consistency litmus engine.

Small generated programs of stores, loads, flushes, fences, SnG cuts
and checkpoint markers run through the :class:`~repro.memory.port`
interposer stack with the power cut at *every* operation index, and
every recovered state checked against the persistency model's allowed
outcomes (arXiv:2405.18575 applied to the LightPC port layer).

Layering:

* :mod:`repro.litmus.ir`        — the litmus-program IR and its timeline
* :mod:`repro.litmus.generate`  — seeded shape + fuzz generators
* :mod:`repro.litmus.oracle`    — allowed-outcome computation and checks
* :mod:`repro.litmus.engine`    — crash-point enumeration over the port
* :mod:`repro.litmus.minimize`  — counterexample delta-minimization
* :mod:`repro.litmus.campaign`  — CampaignRunner wiring (``repro litmus``)
"""

from repro.litmus.campaign import LitmusOutcome, LitmusReport, run_litmus
from repro.litmus.engine import ProgramVerdict, run_program
from repro.litmus.generate import SHAPES, generate_program
from repro.litmus.ir import LitmusOp, LitmusProgram, OpKind, build_timeline
from repro.litmus.minimize import minimize_counterexample
from repro.litmus.oracle import Counterexample, PersistencyModel

__all__ = [
    "Counterexample",
    "LitmusOp",
    "LitmusOutcome",
    "LitmusProgram",
    "LitmusReport",
    "OpKind",
    "PersistencyModel",
    "ProgramVerdict",
    "SHAPES",
    "build_timeline",
    "generate_program",
    "minimize_counterexample",
    "run_litmus",
    "run_program",
]
