"""Journal-ledger durability and graceful-shutdown supervision."""

import json
import os
import signal

import pytest

from repro.ckpt.engine import CheckpointWriter, run_vliw
from repro.ckpt.journal import Journal
from repro.ckpt.signals import (
    ShutdownRequested,
    SignalSupervisor,
    exit_code_for,
)
from repro.ckpt.state import restore_vliw
from repro.machine.config import base_machine

from tests.ckpt.test_roundtrip import (
    fresh_machine,
    paging_handler,
    recovery_program,
    result_fields,
)


class TestJournal:
    def test_record_and_replay(self, tmp_path):
        with Journal(tmp_path / "j") as journal:
            journal.record("a", {"value": 1})
            journal.record("b", {"value": 2})
        assert Journal(tmp_path / "j").completed() == {
            "a": {"value": 1},
            "b": {"value": 2},
        }

    def test_later_record_wins(self, tmp_path):
        journal = Journal(tmp_path)
        journal.record("a", {"value": 1})
        journal.record("a", {"value": 2})
        journal.close()
        assert Journal(tmp_path).completed() == {"a": {"value": 2}}

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        journal.record("a", {"value": 1})
        journal.close()
        with open(journal.ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "payl')  # SIGKILL mid-append
        assert Journal(tmp_path).completed() == {"a": {"value": 1}}

    def test_foreign_lines_are_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        with open(journal.ledger_path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")  # valid JSON, wrong shape
            handle.write(json.dumps({"key": "a", "payload": {"v": 1}}) + "\n")
        assert Journal(tmp_path).completed() == {"a": {"v": 1}}


class TestSignals:
    def test_exit_codes(self):
        assert exit_code_for(signal.SIGINT) == 130
        assert exit_code_for(signal.SIGTERM) == 143

    def test_supervisor_defers_and_arms_second_signal(self):
        with SignalSupervisor() as supervisor:
            assert supervisor.pending is None
            os.kill(os.getpid(), signal.SIGINT)
            # Handler only records; we are still alive.
            assert supervisor.pending == signal.SIGINT
            # The second delivery would use the default disposition.
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler or (
                signal.getsignal(signal.SIGINT) == signal.SIG_DFL
            )
            exc = supervisor.shutdown()
            assert isinstance(exc, ShutdownRequested)
            assert exc.exit_code == 130
            assert "SIGINT" in str(exc)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with SignalSupervisor():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_shutdown_message_carries_checkpoint_path(self):
        supervisor = SignalSupervisor()
        supervisor.pending = signal.SIGTERM
        exc = supervisor.shutdown(checkpoint="/tmp/x/final.json")
        assert exc.checkpoint == "/tmp/x/final.json"
        assert "final.json" in str(exc)


class TestSupervisedRunLoop:
    def test_pending_signal_flushes_final_and_raises(self, tmp_path):
        machine = fresh_machine()
        writer = CheckpointWriter(tmp_path)
        supervisor = SignalSupervisor()  # not installed: drive directly
        supervisor.pending = signal.SIGTERM
        with pytest.raises(ShutdownRequested) as excinfo:
            run_vliw(machine, writer=writer, supervisor=supervisor)
        final = tmp_path / "final.json"
        assert excinfo.value.checkpoint == str(final)
        assert excinfo.value.exit_code == 143
        assert final.exists()

        # The flushed checkpoint continues to the bit-identical result.
        baseline = fresh_machine().run()
        from repro.ckpt.state import load_snapshot

        restored = restore_vliw(
            load_snapshot(final),
            recovery_program(),
            base_machine(),
            fault_handler=paging_handler,
            path=final,
        )
        assert result_fields(restored.run()) == result_fields(baseline)

    def test_uninterrupted_run_matches_plain_run(self, tmp_path):
        baseline = fresh_machine().run()
        checkpointed = run_vliw(
            fresh_machine(),
            checkpoint_every=2,
            writer=CheckpointWriter(tmp_path),
        )
        assert result_fields(checkpointed) == result_fields(baseline)
        assert list(tmp_path.glob("ckpt-*.json"))  # snapshots were cut
