"""Checkpoint compatibility across the taint track.

Three guarantees ride the ``repro-checkpoint/v1`` schema:

* taint-off snapshots are **byte-identical** to the pre-taint layout --
  no ``"taint"`` key appears anywhere, so old tooling (and old stored
  snapshots' hashes) keep working;
* a **pre-taint snapshot restores all-clear**: a document with no
  ``"taint"`` keys rebuilds a machine whose pending writes, store-buffer
  entries and in-flight results all carry ``taint=None``;
* with tracking on, entry-level taint **round-trips**: snapshot ->
  canonical JSON -> restore -> re-snapshot reproduces the document
  byte-for-byte, tags included.
"""

import json

from repro.ckpt.state import (
    canonical_dumps,
    content_hash,
    restore_vliw,
    snapshot_vliw,
)
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.taint import TaintTracker, derive_gadget
from repro.verify.case import ReproCase

from tests.ckpt.test_roundtrip import fresh_machine, recovery_program


def _strip_taint(obj):
    """A deep copy of *obj* with every ``"taint"`` key removed -- the
    shape a snapshot written before the taint track existed has."""
    if isinstance(obj, dict):
        return {
            key: _strip_taint(value)
            for key, value in obj.items()
            if key != "taint"
        }
    if isinstance(obj, list):
        return [_strip_taint(item) for item in obj]
    return obj


def _entry_taints(machine: VLIWMachine) -> list:
    """Every taint slot a restored machine carries, in a stable order."""
    taints = []
    for entry in machine.regfile.entries:
        taints.extend(write.taint for write in entry.pending)
    taints.extend(
        entry.taint for _, entry in machine.store_buffer._entries
    )
    taints.extend(flight.taint for flight in machine._in_flight)
    return taints


def _leaky_gadget_machine(taint: TaintTracker | None = None) -> VLIWMachine:
    """A hand-scheduled speculative gadget mid-flight taints state."""
    spec = _leaky_spec()
    case = ReproCase.from_gadget(spec)
    return VLIWMachine(
        case.program(),
        case.config,
        case.make_memory(),
        **({} if taint is None else {"taint": taint}),
    )


def _leaky_spec():
    index = 0
    while True:
        spec = derive_gadget(7, index)
        if spec.expected_leak:
            return spec
        index += 1


class TestTaintOffSnapshots:
    def test_no_taint_keys_anywhere(self):
        machine = fresh_machine()
        steps = 0
        while steps < 3 and machine.step():
            steps += 1
        assert not machine.halted
        document = snapshot_vliw(machine)
        assert '"taint"' not in canonical_dumps(document)

    def test_gadget_without_tracker_stays_clean(self):
        # Even the leaky gadget: the taint *track* is what mints tags,
        # not the program shape.  Off means byte-identical-to-pre-taint.
        machine = _leaky_gadget_machine()
        while not machine.halted:
            document = snapshot_vliw(machine)
            assert '"taint"' not in canonical_dumps(document)
            if not machine.step():
                break


class TestPreTaintSnapshotsRestoreAllClear:
    def test_stripped_snapshot_restores_with_taint_none(self):
        tracker = TaintTracker()
        machine = _leaky_gadget_machine(tracker)
        spec = _leaky_spec()
        case = ReproCase.from_gadget(spec)

        tainted_doc = None
        while machine.step():
            document = snapshot_vliw(machine)
            if '"taint"' in canonical_dumps(document):
                tainted_doc = document
                break
        assert tainted_doc is not None, "gadget never tainted buffered state"

        # Strip the taint keys and re-seal the envelope: exactly the
        # document a pre-taint writer would have produced at this cycle.
        pre_taint = _strip_taint(tainted_doc)
        pre_taint["hash"] = content_hash(pre_taint)
        restored = restore_vliw(pre_taint, case.program(), case.config)
        taints = _entry_taints(restored)
        assert taints, "restored machine should still have buffered state"
        assert all(taint is None for taint in taints)


class TestTaintRoundTrip:
    def test_tainted_snapshot_roundtrips_byte_identically(self):
        tracker = TaintTracker()
        machine = _leaky_gadget_machine(tracker)
        spec = _leaky_spec()
        case = ReproCase.from_gadget(spec)

        checked_tainted = 0
        while machine.step():
            document = snapshot_vliw(machine)
            # File-write fidelity: through canonical JSON and back.
            document = json.loads(canonical_dumps(document))
            restored = restore_vliw(document, case.program(), case.config)
            again = snapshot_vliw(restored)
            assert canonical_dumps(again) == canonical_dumps(document)
            if '"taint"' in canonical_dumps(document):
                checked_tainted += 1
                assert any(
                    taint is not None for taint in _entry_taints(restored)
                )
        assert checked_tainted > 0, "gadget never tainted buffered state"
