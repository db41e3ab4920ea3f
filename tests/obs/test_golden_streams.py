"""Golden observer output: the machine's observable text is frozen.

Every string the VLIW machine hands an observer -- flight-recorder
details and predicates, committed effects, Perfetto op/instant/span
arguments, metric names, the Table-1 event log, taint leak records --
is compared against ``golden/streams.json``.  The fixture was captured
from the machine before its hot path was reworked (decode-once issue,
mask verdicts, pre-rendered observer text), so a byte-level difference
here means an optimisation changed what the machine reports, not just
how fast it reports it.

Two kinds of golden:

* the security oracle's ``flight_window`` and ``leaks`` for the frozen
  ``findings/case-taint-*.json`` cases, verbatim;
* per-stream SHA-256 digests of fully observed runs (every observer on
  at once) over two kernels and two fuzz programs that take faults and
  recoveries, so the recovery and fault text is covered too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.models import MODELS
from repro.compiler.pipeline import compile_program
from repro.ir.cfg import build_cfg
from repro.machine.config import base_machine
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine
from repro.obs.effects import EffectStream
from repro.obs.flight import RingRecorder
from repro.obs.metrics import CounterSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.verify.case import ReproCase
from repro.taint.track import TaintTracker
from repro.verify.fuzz import build_case, derive_campaign
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden") / "streams.json"

TAINT_CASES = ("case-taint-3-0", "case-taint-3-1")
KERNEL_RUNS = (("grep", "region_pred"), ("li", "trace_pred"))
#: (seed, index) fuzz campaigns whose programs take recoveries.
FUZZ_RUNS = ((0, 71), (0, 90))


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def case_document(name: str) -> dict:
    result = ReproCase.load(ROOT / "findings" / f"{name}.json").run()
    document = result.to_dict()
    return {
        "flight_window": document["flight_window"],
        "leaks": document["leaks"],
    }


def _observed_factory(holder: dict):
    """A machine factory with every observer attached."""

    def factory(*args, **kwargs):
        flight = RingRecorder(capacity=1 << 20, source="golden")
        tracker = TaintTracker(sink=CounterSink(), flight=flight)
        machine = VLIWMachine(
            *args,
            record_events=True,
            sink=CounterSink(),
            tracer=CycleTraceRecorder(),
            flight=flight,
            effects=EffectStream("machine", flight),
            taint=tracker,
            **kwargs,
        )
        holder["machine"] = machine
        return machine

    return factory


def _stream_digests(machine: VLIWMachine) -> dict:
    result = machine.result()
    taint = machine.taint
    return {
        "cycles": result.cycles,
        "flight_events": machine.flight.seq,
        "flight": _digest(machine.flight.to_dicts()),
        "effects": _digest(machine.effects.to_dicts()),
        "metrics": _digest(machine.sink.to_dict()),
        "trace": _digest(machine.tracer.events),
        "table1": _digest([dataclasses.asdict(e) for e in machine.events]),
        "taint": _digest(
            {
                "counters": taint.counters(),
                "finals": taint.finals(),
                "leaks": [leak.to_dict() for leak in taint.leaks],
            }
        ),
    }


def kernel_document(name: str, model: str) -> dict:
    workload = get_workload(name)
    config = base_machine()
    program = workload.program
    train = run_scalar(program, build_cfg(program), workload.train_memory())
    compiled = compile_program(
        program, MODELS[model], config, StaticPredictor.from_trace(train.trace)
    )
    holder: dict = {}
    _observed_factory(holder)(compiled.vliw, config, workload.eval_memory()).run()
    return _stream_digests(holder["machine"])


def fuzz_document(seed: int, index: int) -> dict:
    holder: dict = {}
    outcome = build_case(derive_campaign(seed, index)).run(
        machine_factory=_observed_factory(holder)
    )
    document = _stream_digests(holder["machine"])
    document["recoveries"] = outcome.recoveries
    return document


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", TAINT_CASES)
def test_case_flight_window_and_leaks_are_byte_identical(golden, name):
    expected = json.dumps(golden["cases"][name], sort_keys=True)
    assert json.dumps(case_document(name), sort_keys=True) == expected


@pytest.mark.parametrize(("name", "model"), KERNEL_RUNS)
def test_kernel_observer_streams_are_unchanged(golden, name, model):
    assert kernel_document(name, model) == golden["kernels"][f"{name}/{model}"]


@pytest.mark.parametrize(("seed", "index"), FUZZ_RUNS)
def test_recovering_program_streams_are_unchanged(golden, seed, index):
    document = fuzz_document(seed, index)
    assert document["recoveries"] > 0  # the fault/recovery text is exercised
    assert document == golden["fuzz"][f"{seed}/{index}"]
