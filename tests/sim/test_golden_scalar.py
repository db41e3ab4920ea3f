"""Golden scalar runs: what the interpreter computes is frozen.

Every speedup divides by the scalar interpreter's cycle count, and every
trace-driven cycle counter and branch predictor reads its dynamic trace.
``golden/scalar_runs.json`` was captured from the interpreter while it
still dispatched on opcode strings and found branch blocks by scanning
backwards, before it decoded each program once.  A difference here means
a change to the interpreter changed *what* it computes, not just how
fast.

Covered runs:

* the 6 kernels on the benchmark inputs of seeds 0 and 1 (memory seeds
  ``2S+1`` for training and ``2S+2`` for evaluation, so 1-4);
* two fuzz programs whose scalar runs fault on unmapped pages, have the
  pager repair them, and re-execute the faulting load;
* both of those again with every observer attached (metrics, flight
  recorder, effect stream, and seeded taint), compared by digest.

Each run records ``steps``, ``scalar_cycles``, ``handled_faults``, the
output, the final registers, and the trace: the block sequence and the
branch events, with instruction uids mapped to instruction indices.
Long sequences are stored as a length plus a SHA-256 digest.

To rebuild the fixture after an intended semantic change, write
``capture()`` to the golden path and review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ir.cfg import build_cfg
from repro.obs.effects import EffectStream
from repro.obs.flight import RingRecorder
from repro.obs.metrics import CounterSink
from repro.sim.interpreter import Interpreter
from repro.taint.tags import TaintTag
from repro.taint.track import TaintTracker
from repro.verify.fuzz import build_case, derive_campaign
from repro.workloads import all_workloads

GOLDEN = Path(__file__).with_name("golden") / "scalar_runs.json"

#: Memory seeds of the benchmark's seeds 0 and 1 (train 2S+1, eval 2S+2).
MEMORY_SEEDS = (1, 2, 3, 4)
#: (seed, index) fuzz campaigns whose scalar runs handle page faults.
FUZZ_RUNS = ((0, 71), (0, 90))
#: Sequences longer than this are frozen as (length, digest).
INLINE_LIMIT = 64


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sequence(values: list) -> object:
    if len(values) <= INLINE_LIMIT:
        return values
    return {"length": len(values), "sha256": _digest(values)}


def _run_document(interpreter: Interpreter) -> dict:
    result = interpreter.run()
    index_of = {
        instruction.uid: index
        for index, instruction in enumerate(interpreter.program.instructions)
    }
    trace = result.trace
    return {
        "steps": result.steps,
        "scalar_cycles": result.scalar_cycles,
        "handled_faults": result.handled_faults,
        "output": _sequence(result.output),
        "registers": list(result.registers),
        "blocks": _sequence(trace.blocks),
        "branches": _sequence(
            [[event.block, index_of[event.uid], event.taken]
             for event in trace.branches]
        ),
    }


def kernel_document(name: str, memory_seed: int) -> dict:
    (workload,) = [w for w in all_workloads() if w.name == name]
    program = workload.program
    return _run_document(
        Interpreter(
            program, workload.make_memory(memory_seed), cfg=build_cfg(program)
        )
    )


def fuzz_document(seed: int, index: int) -> dict:
    case = build_case(derive_campaign(seed, index))
    program = case.program()
    return _run_document(
        Interpreter(
            program,
            case.make_memory(),
            cfg=build_cfg(program),
            fault_handler=case.make_fault_handler(),
        )
    )


def observed_document(seed: int, index: int) -> dict:
    """A fuzz run with every observer on, and taint seeded on r1, r2 and
    every backing-store word, so loads, stores, outputs and condition
    sets all propagate or report taint.  Each seed tag has its own pc:
    the taint serializer orders tags by (cycle, pc, kind, origin)."""
    case = build_case(derive_campaign(seed, index))
    program = case.program()
    sink = CounterSink()
    flight = RingRecorder(capacity=1 << 20, source="golden")
    tracker = TaintTracker(sink=CounterSink(), flight=flight)
    for reg in (1, 2):
        tracker.seed_register(
            reg, TaintTag("value", 0, reg, None, None, "seed")
        )
    for address in sorted(case.backing or {}):
        tracker.seed_memory(
            address, TaintTag("value", 0, address, None, address, "seed")
        )
    interpreter = Interpreter(
        program,
        case.make_memory(),
        cfg=build_cfg(program),
        fault_handler=case.make_fault_handler(),
        sink=sink,
        flight=flight,
        effects=EffectStream("scalar", flight),
        taint=tracker,
    )
    document = _run_document(interpreter)
    return {
        "run": _digest(document),
        "flight_events": flight.seq,
        "flight": _digest(flight.to_dicts()),
        "effects": _digest(interpreter.effects.to_dicts()),
        "metrics": _digest(sink.to_dict()),
        "taint": _digest(
            {
                "counters": tracker.counters(),
                "finals": tracker.finals(),
                "leaks": [leak.to_dict() for leak in tracker.leaks],
            }
        ),
    }


def capture() -> dict:
    """The fixture's full content, computed by the current interpreter."""
    return {
        "kernels": {
            f"{workload.name}/{memory_seed}": kernel_document(
                workload.name, memory_seed
            )
            for workload in all_workloads()
            for memory_seed in MEMORY_SEEDS
        },
        "fuzz": {
            f"{seed}/{index}": fuzz_document(seed, index)
            for seed, index in FUZZ_RUNS
        },
        "observed": {
            f"{seed}/{index}": observed_document(seed, index)
            for seed, index in FUZZ_RUNS
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("memory_seed", MEMORY_SEEDS)
@pytest.mark.parametrize(
    "name", ["compress", "eqntott", "espresso", "grep", "li", "nroff"]
)
def test_kernel_scalar_runs_are_unchanged(golden, name, memory_seed):
    assert kernel_document(name, memory_seed) == golden["kernels"][
        f"{name}/{memory_seed}"
    ]


@pytest.mark.parametrize(("seed", "index"), FUZZ_RUNS)
def test_faulting_fuzz_runs_are_unchanged(golden, seed, index):
    document = fuzz_document(seed, index)
    assert document["handled_faults"] > 0  # the re-execute path is exercised
    assert document == golden["fuzz"][f"{seed}/{index}"]


@pytest.mark.parametrize(("seed", "index"), FUZZ_RUNS)
def test_observed_fuzz_runs_are_unchanged(golden, seed, index):
    assert observed_document(seed, index) == golden["observed"][
        f"{seed}/{index}"
    ]


def test_fixture_covers_every_kernel(golden):
    names = {key.split("/")[0] for key in golden["kernels"]}
    assert names == {workload.name for workload in all_workloads()}
