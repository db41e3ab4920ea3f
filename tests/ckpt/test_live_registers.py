"""Restoring buffered shadow writes rebuilds the commit hardware's work list.

The register file's commit tick visits only its *live* registers -- the
ones holding pending writes -- rather than all 32.  A checkpoint stores
the pending writes, not that set, so ``load_state`` must rebuild it: a
write restored but missing from the set would never commit or squash.
"""

import json

from repro.analysis.branch_prediction import StaticPredictor
from repro.ckpt.state import restore_vliw, snapshot_vliw
from repro.compiler.models import MODELS
from repro.compiler.pipeline import compile_program
from repro.core.ccr import CCR
from repro.core.predicate import Predicate
from repro.core.regfile import PredicatedRegisterFile
from repro.ir.cfg import build_cfg
from repro.machine.config import base_machine
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine
from repro.workloads import get_workload


def test_load_state_rebuilds_the_live_set():
    source = PredicatedRegisterFile(32)
    source.write_speculative(7, 70, Predicate({0: True}))
    source.write_speculative(3, 30, Predicate({0: True}))
    state = json.loads(json.dumps(source.state_dict()))

    restored = PredicatedRegisterFile(32)
    restored.write_speculative(9, 90, Predicate({1: True}))  # replaced
    restored.load_state(state)
    assert restored.live == {3, 7}
    assert restored.shadow_occupancy() == 2

    ccr = CCR(4)
    ccr.set(0, True)
    events = restored.tick(ccr)
    assert events.committed == [3, 7]  # register order
    assert restored.sequential_snapshot()[3] == 30
    assert restored.sequential_snapshot()[7] == 70
    assert restored.sequential_snapshot()[9] == 0
    assert restored.live == set()
    assert not restored.has_speculative_state()


def _compress_region_pred():
    workload = get_workload("compress")
    config = base_machine()
    program = workload.program
    train = run_scalar(program, build_cfg(program), workload.train_memory())
    compiled = compile_program(
        program,
        MODELS["region_pred"],
        config,
        StaticPredictor.from_trace(train.trace),
    )
    return compiled.vliw, config, workload.eval_memory()


def test_restore_with_pending_shadow_writes_commits_them_next_tick():
    vliw, config, memory = _compress_region_pred()
    machine = VLIWMachine(vliw, config, memory.clone())
    # Advance to a cycle boundary where buffered writes resolve (commit
    # or squash) on the very next tick.
    while True:
        assert machine.step()
        if not machine.regfile.has_speculative_state():
            continue
        probe = restore_vliw(snapshot_vliw(machine), vliw, config)
        before = probe.regfile.shadow_occupancy()
        probe.step()
        if probe.regfile.shadow_occupancy() < before:
            break

    document = json.loads(json.dumps(snapshot_vliw(machine)))
    restored = restore_vliw(document, vliw, config)
    pending = {reg for reg, _ in machine.regfile.pending_writes()}
    assert pending and restored.regfile.live == pending

    machine.step()
    restored.step()
    assert restored.regfile.state_dict() == machine.regfile.state_dict()
    assert restored.regfile.live == machine.regfile.live

    expected = machine.run()
    resumed = restored.run()
    assert resumed.output == expected.output
    assert resumed.registers == expected.registers
    assert resumed.cycles == expected.cycles
