"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import PROFILE_SCHEMA, build_parser, main
from repro.eval.artifact import SCHEMA, SCHEMA_V2, load_artifact
from repro.obs.trace_events import validate_trace_events

FINDINGS = Path(__file__).resolve().parents[1] / "findings"


class TestCli:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("compress", "eqntott", "espresso", "grep", "li", "nroff"):
            assert name in out

    def test_run_workload(self, capsys):
        assert main(["run", "grep"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "output" in out

    def test_run_assembly_file(self, tmp_path, capsys):
        source = tmp_path / "tiny.s"
        source.write_text("li r1, 41\naddi r1, r1, 1\nout r1\nhalt\n")
        assert main(["run", str(source)]) == 0
        assert "[42]" in capsys.readouterr().out

    def test_compile_dump(self, capsys):
        assert main(["compile", "li", "--model", "region_pred", "--dump"]) == 0
        out = capsys.readouterr().out
        assert "units" in out and "B" in out

    def test_compile_restricted_model(self, capsys):
        assert main(["compile", "li", "--model", "global"]) == 0
        assert "units" in capsys.readouterr().out

    def test_exec_region_pred(self, capsys):
        assert main(["exec", "li", "--model", "region_pred"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "recoveries" in out

    def test_experiment_hwcost(self, capsys):
        assert main(["experiment", "hwcost", "--no-cache"]) == 0
        assert "3 gates" in capsys.readouterr().out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3", "--no-cache"]) == 0
        assert "grep" in capsys.readouterr().out

    def test_experiment_json_directory(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "artifacts"
        assert (
            main(
                ["experiment", "table2", "--cache-dir", str(cache),
                 "--json", str(out)]
            )
            == 0
        )
        document = load_artifact(out / "table2.json")
        assert document["schema"] == SCHEMA
        assert document["experiment"] == "table2"
        assert len(document["data"]["rows"]) == 6
        err = capsys.readouterr().err
        assert "misses 6" in err

    def test_experiment_json_explicit_file(self, tmp_path, capsys):
        target = tmp_path / "t2.json"
        assert (
            main(["experiment", "table2", "--no-cache", "--json", str(target)])
            == 0
        )
        assert json.loads(target.read_text())["experiment"] == "table2"

    def test_experiment_all_rejects_json_file_target(self, tmp_path, capsys):
        code = main(
            ["experiment", "all", "--no-cache", "--json",
             str(tmp_path / "one.json")]
        )
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_experiment_warm_cache_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["experiment", "table3", "--cache-dir", str(cache)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "hit rate 100%" in err

    def test_experiment_jobs_flag_parses(self, tmp_path, capsys):
        assert (
            main(
                ["experiment", "table2", "--jobs", "2", "--cache-dir",
                 str(tmp_path / "c")]
            )
            == 0
        )
        assert "Table 2" in capsys.readouterr().out

    def test_experiment_quiet_suppresses_stats(self, capsys):
        assert main(["experiment", "hwcost", "--no-cache", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "gates" in captured.out
        assert captured.err == ""

    def test_experiment_json_stdout(self, capsys):
        assert (
            main(["experiment", "hwcost", "--no-cache", "--quiet",
                  "--json", "-"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == SCHEMA
        assert document["experiment"] == "hwcost"

    def test_experiment_json_stdout_rejects_all(self, capsys):
        code = main(["experiment", "all", "--no-cache", "--json", "-"])
        assert code == 2
        assert "single" in capsys.readouterr().err

    def test_experiment_metrics_embeds_runner_telemetry(self, tmp_path):
        target = tmp_path / "shadow.json"
        assert (
            main(["experiment", "shadow", "--no-cache", "--quiet",
                  "--metrics", "--json", str(target)])
            == 0
        )
        document = load_artifact(target)
        assert document["schema"] == SCHEMA_V2
        counters = document["metrics"]["counters"]
        assert counters["runner.cells"] == counters["runner.cache_misses"]
        assert counters["runner.cells"] > 0

    def test_experiment_default_artifact_stays_v1(self, tmp_path):
        target = tmp_path / "shadow.json"
        assert (
            main(["experiment", "shadow", "--no-cache", "--quiet",
                  "--json", str(target)])
            == 0
        )
        document = load_artifact(target)
        assert document["schema"] == SCHEMA
        assert "metrics" not in document

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "li", "--model", "warp"])


class TestProfileCli:
    def test_profile_prints_counters_and_attribution(self, capsys):
        assert main(["profile", "compress"]) == 0
        out = capsys.readouterr().out
        assert "top regions by cycles" in out
        assert "machine.cycles" in out
        assert "regfile.shadow_occupancy" in out

    def test_profile_predicating_alias(self, capsys):
        assert main(["profile", "li", "--model", "predicating"]) == 0
        assert "model         : region_pred" in capsys.readouterr().out

    def test_profile_json_document(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert (
            main(["profile", "compress", "--model", "predicating",
                  "--json", str(target)])
            == 0
        )
        document = json.loads(target.read_text())
        assert document["schema"] == PROFILE_SCHEMA
        assert document["model"] == "region_pred"
        counters = document["metrics"]["counters"]
        # The documented stable counter names.
        for name in (
            "machine.cycles",
            "machine.bundles",
            "machine.ops.issued",
            "machine.ops.squashed",
            "regfile.commits",
            "storebuffer.commits",
        ):
            assert name in counters, name
        assert counters["machine.cycles"] == document["machine_cycles"]
        attribution = document["attribution"]
        assert attribution["attributed_cycles"] == attribution["total_cycles"]

    def test_profile_json_stdout(self, capsys):
        assert main(["profile", "grep", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        assert json.loads(payload)["schema"] == PROFILE_SCHEMA

    def test_profile_trace_out(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["profile", "compress", "--trace-out", str(target)]) == 0
        tracks = validate_trace_events(json.loads(target.read_text()))
        assert len(tracks) >= 3
        for track in ("alu", "ccr", "region"):
            assert track in tracks

    def test_exec_trace_out(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["exec", "li", "--trace-out", str(target)]) == 0
        tracks = validate_trace_events(json.loads(target.read_text()))
        assert "alu" in tracks


class TestVerifyCli:
    def test_verify_workload_all_models(self, capsys):
        assert main(["verify", "grep"]) == 0
        out = capsys.readouterr().out
        assert out.count("EQUIVALENT") == 2  # region_pred + trace_pred
        assert "region_pred" in out and "trace_pred" in out

    def test_verify_single_model(self, capsys):
        assert main(["verify", "li", "--model", "region_pred"]) == 0
        out = capsys.readouterr().out
        assert out.count("EQUIVALENT") == 1

    def test_verify_predicating_alias(self, capsys):
        assert main(["verify", "grep", "--model", "predicating"]) == 0
        assert "region_pred" in capsys.readouterr().out

    def test_verify_json_document(self, tmp_path, capsys):
        target = tmp_path / "verify.json"
        assert main(["verify", "grep", "--json", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "repro-verify/v1"
        assert all(result["equivalent"] for result in document["results"])
        assert document["metrics"]["counters"]["oracle.runs"] == 2

    def test_verify_needs_a_target(self, capsys):
        assert main(["verify"]) == 2

    def test_verify_all_checks_every_workload(self, tmp_path, capsys):
        target = tmp_path / "verify.json"
        assert main(
            ["verify", "all", "--model", "region_pred", "--json", str(target)]
        ) == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "repro-verify/v1"
        results = document["results"]
        assert [result["program"] for result in results] == [
            "compress", "eqntott", "espresso", "grep", "li", "nroff",
        ]
        assert all(result["model"] == "region_pred" for result in results)
        assert all(result["equivalent"] for result in results)
        assert capsys.readouterr().out.count("EQUIVALENT") == 6

    @pytest.mark.parametrize(
        "argv",
        [["run", "nosuch"], ["verify", "nosuch"],
         ["verify", "nosuch", "--security"]],
    )
    def test_unknown_target_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown workload 'nosuch'" in err
        assert "compress, eqntott, espresso, grep, li, nroff" in err

    def test_verify_replay_roundtrip(self, tmp_path, capsys):
        from repro.verify.fuzz import build_case, derive_campaign

        case_path = build_case(derive_campaign(0, 0)).save(
            tmp_path / "case.json"
        )
        assert main(["verify", "--replay", str(case_path)]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out and "EQUIVALENT" in out

    def test_verify_generous_max_cycles_passes(self, capsys):
        assert main(
            ["verify", "grep", "--model", "region_pred",
             "--max-cycles", "10000000"]
        ) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_verify_max_cycles_turns_livelock_into_exit_1(self, capsys):
        # A tiny budget makes every engine blow its step limit; the
        # result is a structured error divergence, never a hang or a
        # raw traceback.
        assert main(
            ["verify", "grep", "--model", "region_pred", "--max-cycles", "5"]
        ) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "StepLimitExceeded" in out

    def test_verify_max_cycles_applies_to_replay(self, tmp_path, capsys):
        from repro.verify.fuzz import build_case, derive_campaign

        case_path = build_case(derive_campaign(0, 0)).save(
            tmp_path / "case.json"
        )
        assert main(
            ["verify", "--replay", str(case_path), "--max-cycles", "5"]
        ) == 1
        assert "StepLimitExceeded" in capsys.readouterr().out

    def test_security_max_cycles_contains_the_training_run(self, capsys):
        assert main(
            ["verify", "grep", "--security", "--model", "region_pred",
             "--max-cycles", "5"]
        ) == 1
        assert capsys.readouterr().out == (
            "grep [region_pred/committed]: ERROR "
            "(training run: grep: exceeded 5 steps)\n"
        )



def _break_case(kind: str, tmp_path) -> Path:
    """A case file that is broken in one way (*kind*)."""
    path = tmp_path / "broken.json"
    document = json.loads(
        (FINDINGS / "case-synthetic-1803.json").read_text()
    )
    if kind == "missing-key":
        del document["program"]
    elif kind == "bad-config-field":
        document["config"]["warp_drive"] = 1
    elif kind == "wrong-schema":
        document["schema"] = "repro-verify-case/v0"
    elif kind == "missing-file":
        return tmp_path / "nosuch.json"
    path.write_text(
        "{not json" if kind == "not-json" else json.dumps(document)
    )
    return path


class TestReplayCli:
    @pytest.mark.parametrize(
        "command",
        [["verify"], ["verify", "--security"], ["diff-trace"]],
        ids=["verify", "verify-security", "diff-trace"],
    )
    @pytest.mark.parametrize(
        "kind",
        ["missing-key", "bad-config-field", "wrong-schema", "not-json",
         "missing-file"],
    )
    def test_broken_case_is_a_usage_error(
        self, command, kind, tmp_path, capsys
    ):
        path = _break_case(kind, tmp_path)
        assert main([*command, "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"repro {command[0]}: {path}: ")

    def test_plain_verify_replays_a_security_case(self, capsys):
        path = FINDINGS / "case-taint-3-0.json"
        assert main(["verify", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(taint-3-0, policy committed)" in out
        assert "pinned register leak: reproduced" in out

    @pytest.mark.parametrize("security", [[], ["--security"]])
    def test_policy_with_replay_is_a_usage_error(self, security, capsys):
        """A replayed case carries its own taint policy; an explicit
        ``--policy`` would be silently ignored, so it is refused."""
        path = FINDINGS / "case-taint-3-0.json"
        argv = ["verify", *security, "--replay", str(path), "--policy", "strict"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro verify: --policy ")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--security", "--replay",
          str(FINDINGS / "case-synthetic-1803.json")],
         ["diff-trace", "--replay", str(FINDINGS / "case-taint-3-0.json")]],
        ids=["security-flag-equivalence-case", "diff-trace-security-case"],
    )
    def test_case_for_another_check_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "expected a case for the" in captured.err


class TestModelChoices:
    """Every command's accepted ``--model`` names, pinned: they derive
    from one alias table (``repro.verify.oracle``)."""

    @staticmethod
    def choices(command: str) -> set[str]:
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (model,) = [
            action for action in commands.choices[command]._actions
            if "--model" in action.option_strings
        ]
        return set(model.choices)

    @pytest.mark.parametrize(
        ("command", "names"),
        [
            ("compile", {"global", "squashing", "trace", "region",
                         "boosting", "trace_pred", "region_pred"}),
            ("exec", {"region_pred", "trace_pred"}),
            ("profile", {"predicating", "region_pred", "trace_pred"}),
            ("verify", {"all", "predicating", "region_pred", "trace_pred"}),
            ("diff-trace", {"predicating", "region_pred", "trace_pred"}),
        ],
    )
    def test_accepted_model_names(self, command, names):
        assert self.choices(command) == names


class TestCkptCli:
    def snapshot(self, tmp_path):
        from repro.ckpt import save, write_snapshot

        from tests.ckpt.test_roundtrip import fresh_machine

        machine = fresh_machine()
        for _ in range(3):
            assert machine.step()
        return write_snapshot(save(machine), tmp_path / "snap.json")

    def test_inspect_json(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        assert main(["ckpt", "inspect", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["engine"] == "vliw"
        assert info["hash_valid"] is True
        assert info["cycle"] == 3

    def test_inspect_summary(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        assert main(["ckpt", "inspect", str(path), "--summary"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("ckpt engine=vliw")
        assert "hash=ok" in line

    def test_inspect_corrupt_snapshot_exits_nonzero(self, tmp_path, capsys):
        path = self.snapshot(tmp_path)
        document = json.loads(path.read_text())
        document["state"]["cycle"] = 999  # silent tamper
        path.write_text(json.dumps(document))
        assert main(["ckpt", "inspect", str(path), "--summary"]) == 1
        captured = capsys.readouterr()
        assert "hash=INVALID" in captured.out
        assert "integrity hash mismatch" in captured.err

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["ckpt", "inspect", str(tmp_path / "nope.json")]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_exec_writes_and_resumes_checkpoints(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        assert (
            main(["exec", "li", "--checkpoint-dir", str(ckpt_dir),
                  "--checkpoint-every", "25"])
            == 0
        )
        first = capsys.readouterr().out
        assert list(ckpt_dir.glob("ckpt-*.json"))
        assert (
            main(["exec", "li", "--checkpoint-dir", str(ckpt_dir),
                  "--checkpoint-every", "25", "--resume"])
            == 0
        )
        resumed = capsys.readouterr()
        assert "[ckpt] resumed" in resumed.err
        assert resumed.out == first  # bit-identical continuation

    def test_exec_resume_requires_checkpoint_dir(self, capsys):
        assert main(["exec", "li", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_profile_resume_preserves_counters(self, tmp_path, capsys):
        target = tmp_path / "full.json"
        assert main(["profile", "li", "--json", str(target)]) == 0
        capsys.readouterr()
        full = json.loads(target.read_text())

        ckpt_dir = tmp_path / "ckpt"
        assert (
            main(["profile", "li", "--checkpoint-dir", str(ckpt_dir),
                  "--checkpoint-every", "25"])
            == 0
        )
        capsys.readouterr()
        resumed_target = tmp_path / "resumed.json"
        assert (
            main(["profile", "li", "--checkpoint-dir", str(ckpt_dir),
                  "--resume", "--json", str(resumed_target)])
            == 0
        )
        resumed = json.loads(resumed_target.read_text())
        assert resumed["metrics"] == full["metrics"]
        assert resumed["machine_cycles"] == full["machine_cycles"]

    def test_experiment_cache_dir_rerun_byte_identical(self, tmp_path, capsys):
        args = ["experiment", "table2", "--cache-dir", str(tmp_path / "cache")]
        first = tmp_path / "first"
        assert main(args + ["--json", str(first)]) == 0
        capsys.readouterr()
        second = tmp_path / "second"
        assert main(args + ["--json", str(second)]) == 0
        assert "hit rate 100%" in capsys.readouterr().err
        assert (first / "table2.json").read_bytes() == (
            second / "table2.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "table2", "--journal", "d"],
            ["experiment", "table2", "--resume"],
            ["experiment", "table2", "--checkpoint-every", "5"],
            ["fuzz", "--resume"],
        ],
        ids=["journal", "resume", "checkpoint-every", "fuzz-resume"],
    )
    def test_sweep_resume_flags_are_gone(self, argv, capsys):
        # The cell cache is the sweep's one durable store; fuzz re-runs
        # replay its --journal without a separate flag.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fuzz_journal_resume_replays(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        args = ["fuzz", "--campaigns", "4", "--seed", "1",
                "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(4 replayed)" in out
        assert "4 equivalent" in out

    def test_fuzz_journal_from_other_code_replays_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.eval.runner as runner

        journal = tmp_path / "journal"
        args = ["fuzz", "--campaigns", "4", "--seed", "1",
                "--journal", str(journal)]
        monkeypatch.setattr(runner, "source_digest", lambda: "code-a")
        assert main(args) == 0
        monkeypatch.setattr(runner, "source_digest", lambda: "code-b")
        capsys.readouterr()
        assert main(args) == 0
        assert "replayed" not in capsys.readouterr().out


class TestFuzzCli:
    def test_fuzz_clean_run(self, capsys):
        assert main(["fuzz", "--campaigns", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "5 campaigns" in out
        assert "0 divergent" in out

    def test_fuzz_json_document(self, tmp_path, capsys):
        target = tmp_path / "fuzz.json"
        assert (
            main(
                ["fuzz", "--campaigns", "4", "--seed", "1",
                 "--json", str(target)]
            )
            == 0
        )
        document = json.loads(target.read_text())
        assert document["schema"] == "repro-fuzz/v1"
        assert document["campaigns"] == 4
        assert document["divergences"] == 0
        assert document["metrics"]["counters"]["fuzz.campaigns"] == 4

    def test_fuzz_verbose_progress(self, capsys):
        assert main(["fuzz", "--campaigns", "2", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert err.count(": ok") == 2

    def test_fuzz_progress_meter(self, capsys):
        assert main(["fuzz", "--campaigns", "3", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[fuzz] 3/3 (100%)" in err
        assert "diverged" in err


class TestDiffTraceCli:
    def test_equivalent_workload(self, capsys):
        assert main(["diff-trace", "grep", "--model", "region_pred"]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_needs_a_target(self, capsys):
        assert main(["diff-trace"]) == 2
        assert "--replay" in capsys.readouterr().err

    def test_replay_divergent_case_pinpoints(self, tmp_path, capsys):
        from repro.verify.fuzz import build_case, derive_campaign
        from repro.verify.tracediff import validate_tracediff

        # A clean case on correct hardware: the CLI can only exercise
        # the equivalent path (broken machines are injected in-process
        # by tests/verify/test_tracediff.py), but the artifact must
        # still validate and carry both sides.
        case_path = build_case(derive_campaign(0, 0)).save(
            tmp_path / "case.json"
        )
        target = tmp_path / "diff.json"
        assert (
            main(
                ["diff-trace", "--replay", str(case_path),
                 "--json", str(target)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "diff-tracing" in out
        document = json.loads(target.read_text())
        validate_tracediff(document)
        assert document["scalar"]["effect_count"] > 0
        assert document["machine"]["effect_count"] > 0

    def test_trace_out_merges_both_processes(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert (
            main(
                ["diff-trace", "grep", "--model", "region_pred",
                 "--trace-out", str(target)]
            )
            == 0
        )
        events = json.loads(target.read_text())
        validate_trace_events(events)
        assert {event["pid"] for event in events} == {1, 2}

    def test_max_cycles_turns_livelock_into_exit_1(self, capsys):
        assert main(
            ["diff-trace", "grep", "--model", "region_pred",
             "--max-cycles", "5"]
        ) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "StepLimitExceeded" in out

    def test_max_cycles_applies_to_replay(self, tmp_path, capsys):
        from repro.verify.fuzz import build_case, derive_campaign

        case_path = build_case(derive_campaign(0, 0)).save(
            tmp_path / "case.json"
        )
        assert main(
            ["diff-trace", "--replay", str(case_path), "--max-cycles", "5"]
        ) == 1
        assert "StepLimitExceeded" in capsys.readouterr().out


class TestServeCli:
    def test_frontend_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_frontends_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--stdio", "--http", "0"])

    def test_bad_settings_exit_2(self, capsys):
        assert main(["serve", "--stdio", "--queue-limit", "0"]) == 2
        assert "queue limit" in capsys.readouterr().err

    def test_stdio_serves_and_exits_on_eof(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        request = json.dumps(
            {
                "id": "c1",
                "kind": "chaos",
                "chaos": {"mode": "ok", "value": 5},
            }
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(
            ["serve", "--stdio", "--journal", str(tmp_path / "j")]
        ) == 0
        captured = capsys.readouterr()
        [line] = [l for l in captured.out.splitlines() if l.strip()]
        response = json.loads(line)
        assert response["status"] == "ok"
        assert response["result"]["value"] == 5
        assert "journal" in captured.err
        # Results are durable: a second life replays without executing.
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(
            ["serve", "--stdio", "--journal", str(tmp_path / "j")]
        ) == 0
        captured = capsys.readouterr()
        assert "1 durable result(s)" in captured.err
        [line] = [l for l in captured.out.splitlines() if l.strip()]
        assert json.loads(line)["result"]["value"] == 5


class TestRunLogCli:
    def test_log_json_brackets_any_command(self, tmp_path, capsys):
        from repro.obs.runlog import read_runlog

        log = tmp_path / "run.jsonl"
        assert main(["--log-json", str(log), "fuzz", "--campaigns", "2"]) == 0
        records = read_runlog(log)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "run.start"
        assert kinds[1] == "run.command"
        assert kinds[-2] == "run.exit"
        assert kinds[-1] == "run.end"
        assert kinds.count("fuzz.campaign") == 2
        exit_record = records[-2]
        assert exit_record["command"] == "fuzz"
        assert exit_record["status"] == 0

    def test_log_json_records_experiment_cells(self, tmp_path, capsys):
        from repro.obs.runlog import read_runlog

        log = tmp_path / "run.jsonl"
        assert (
            main(
                ["--log-json", str(log), "experiment", "hwcost",
                 "--no-cache", "--quiet"]
            )
            == 0
        )
        cells = [
            record
            for record in read_runlog(log)
            if record["kind"] == "experiment.cell"
        ]
        assert cells
        assert all(record["outcome"] == "computed" for record in cells)

    def test_without_flag_no_log_is_written(self, tmp_path, capsys):
        assert main(["fuzz", "--campaigns", "1"]) == 0
        assert list(tmp_path.iterdir()) == []
