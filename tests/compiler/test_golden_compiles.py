"""Golden compiles: what the compiler and the cycle counter produce is frozen.

Every model's numbers come from the trace-driven cycle counter, and
the machine runs (``tests/integration/test_models_on_machine.py``) check
that a schedule is right, not that it is the same one, so nothing else
notices when a compiler change shifts a schedule.
``golden/compiles.json`` was captured from the compiler
before its trace walk became table-driven and before its passes stopped
re-deriving instruction views.  A difference here means a change to the
compiler changed *what* it produces, not just how fast.

Covered compiles: the 6 kernels and the two golden fuzz programs of
``tests/sim/test_golden_scalar.py``, each under all 7 models on four
machines -- the paper's base machine, Figure 8's 2-issue/depth-1 and
8-issue/depth-8 full-issue machines, and the BTB ablation's 64-entry
finite BTB.  Kernels train on their training input and are counted on
their evaluation input; a fuzz program trains and is counted on its own
memory, with its pager.

Each compile records, per unit (keyed by header block), the schedule
length and the exit and halt cycles; the ``count_cycles`` result
(cycles, region entries, BTB hits and misses); and a SHA-256 of
``VLIWProgram.format()``.

To rebuild the fixture after an intended change, write
``dumps(capture())`` to the golden path and review the diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler import MODELS, compile_program
from repro.ir.cfg import build_cfg
from repro.machine.config import base_machine, full_issue_machine
from repro.machine.scalar import run_scalar
from repro.verify.fuzz import build_case, derive_campaign
from repro.workloads import all_workloads

GOLDEN = Path(__file__).with_name("golden") / "compiles.json"

CONFIGS = {
    "base": base_machine(),
    "w2d1": full_issue_machine(2, 1),
    "w8d8": full_issue_machine(8, 8),
    "btb64": dataclasses.replace(base_machine(), btb_entries=64),
}
#: (seed, index) fuzz campaigns of the golden scalar runs.
FUZZ_RUNS = ((0, 71), (0, 90))
KERNELS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")


def _compile_document(program, predictor, trace, model, config) -> dict:
    compiled = compile_program(program, model, config, predictor)
    count = compiled.code.count_cycles(trace, config)
    document = {
        "units": {
            str(header): {
                "length": unit.length,
                "exits": sorted(
                    [node, arm, cycle]
                    for (node, arm), cycle in unit.exit_cycle.items()
                ),
                "halts": sorted(unit.halt_cycle.items()),
            }
            for header, unit in sorted(compiled.code.units.items())
        },
        "count": [
            count.cycles, count.region_entries, count.btb_hits, count.btb_misses
        ],
        "vliw": hashlib.sha256(compiled.vliw.format().encode()).hexdigest(),
    }
    # Round-trip through JSON so tuples and int keys compare as stored.
    return json.loads(json.dumps(document))


def _profiles(program, train_memory, eval_memory, make_handler=None):
    cfg = build_cfg(program)
    handler = make_handler() if make_handler else None
    train = run_scalar(program, cfg, train_memory, fault_handler=handler)
    handler = make_handler() if make_handler else None
    evaluation = run_scalar(program, cfg, eval_memory, fault_handler=handler)
    return StaticPredictor.from_trace(train.trace), evaluation.trace


def kernel_documents(name: str) -> dict:
    (workload,) = [w for w in all_workloads() if w.name == name]
    program = workload.program
    predictor, trace = _profiles(
        program, workload.train_memory(), workload.eval_memory()
    )
    return {
        f"{model}/{label}": _compile_document(
            program, predictor, trace, model, config
        )
        for model in MODELS
        for label, config in CONFIGS.items()
    }


def fuzz_documents(seed: int, index: int) -> dict:
    case = build_case(derive_campaign(seed, index))
    program = case.program()
    predictor, trace = _profiles(
        program, case.make_memory(), case.make_memory(),
        case.make_fault_handler,
    )
    return {
        f"{model}/{label}": _compile_document(
            program, predictor, trace, model, config
        )
        for model in MODELS
        for label, config in CONFIGS.items()
    }


def capture() -> dict:
    """The fixture's full content, computed by the current compiler."""
    return {
        "kernels": {name: kernel_documents(name) for name in KERNELS},
        "fuzz": {
            f"{seed}/{index}": fuzz_documents(seed, index)
            for seed, index in FUZZ_RUNS
        },
    }


def dumps(document, depth: int = 0) -> str:
    """The fixture's layout: nested objects indented, one unit per line."""
    if depth == 5 or not isinstance(document, dict):
        return json.dumps(document, sort_keys=True, separators=(",", ":"))
    pad = " " * (depth + 1)
    body = ",\n".join(
        f"{pad}{json.dumps(key)}: {dumps(value, depth + 1)}"
        for key, value in sorted(document.items())
    )
    return "{\n" + body + "\n" + " " * depth + "}" + ("\n" if depth == 0 else "")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_compiles_are_unchanged(golden, name):
    documents = kernel_documents(name)
    assert documents.keys() == golden["kernels"][name].keys()
    for key, document in documents.items():
        assert document == golden["kernels"][name][key], key


@pytest.mark.parametrize(("seed", "index"), FUZZ_RUNS)
def test_fuzz_compiles_are_unchanged(golden, seed, index):
    documents = fuzz_documents(seed, index)
    expected = golden["fuzz"][f"{seed}/{index}"]
    assert documents.keys() == expected.keys()
    for key, document in documents.items():
        assert document == expected[key], key


def test_fixture_covers_every_kernel_model_and_machine(golden):
    assert set(golden["kernels"]) == {w.name for w in all_workloads()}
    for documents in (*golden["kernels"].values(), *golden["fuzz"].values()):
        assert set(documents) == {
            f"{model}/{label}" for model in MODELS for label in CONFIGS
        }
        for key, document in documents.items():
            assert "vliw" in document, key
