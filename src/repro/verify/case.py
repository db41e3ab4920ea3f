"""Serializable repro cases: a divergence or a leak, frozen to JSON.

A :class:`ReproCase` captures everything one check needs to reproduce
deterministically and names that check.  An ``equivalence`` case
(``repro-verify-case/v1``) holds the scalar program text, the initial
memory image (resident words plus, for demand-paged campaigns, the
pager's backing store), the model with any policy overrides, and the
machine configuration.  A ``security`` case (``repro-security-case/v1``)
holds a hand-scheduled VLIW program (the :mod:`repro.machine.text`
grammar), the memory, the taint policy, and the leak kind a replay must
reproduce.  Cases round-trip through JSON (``repro verify --replay
CASE.json``) under their own schema, so a finding shrunk on one machine
replays bit-identically anywhere.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.exceptions import FaultKind
from repro.isa.parser import parse_program
from repro.machine.config import MachineConfig, base_machine
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.memory import Memory
from repro.taint.track import POLICIES

#: Envelope identifiers, one per check; bump on breaking layout changes.
CASE_SCHEMA = "repro-verify-case/v1"
SECURITY_CASE_SCHEMA = "repro-security-case/v1"
SCHEMAS = {"equivalence": CASE_SCHEMA, "security": SECURITY_CASE_SCHEMA}
_CHECKS = {schema: check for check, schema in SCHEMAS.items()}

#: Model name reported for prebuilt (hand-scheduled) VLIW programs.
HAND_MODEL = "hand-vliw"


def _with_path(path, reason: str) -> str:
    return f"{path}: {reason}" if path is not None else reason


@dataclass
class ReproCase:
    """One self-contained, replayable check input."""

    name: str
    #: Scalar assembly (equivalence) or scheduled VLIW text (security).
    program_text: str
    model: str
    config: MachineConfig
    memory_words: dict[int, int] = field(default_factory=dict)
    mapped_only: bool = False
    backing: dict[int, int] | None = None  # pager backing store
    policy_overrides: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    check: str = "equivalence"  # "equivalence" | "security"
    policy: str = "committed"  # taint policy (security)
    expected_kind: str | None = None  # pinned leak channel (security)

    # -- reconstruction ------------------------------------------------
    def program(self):
        """The parsed program: a ``Program`` or, for a security case, a
        ``VLIWProgram``."""
        if self.check == "security":
            from repro.machine.text import parse_vliw

            return parse_vliw(self.program_text, name=self.name)
        return parse_program(self.program_text, name=self.name)

    def size(self) -> int:
        """Instructions in the program (bundles for a security case)."""
        program = self.program()
        if self.check == "security":
            return len(program.bundles)
        return len(program.instructions)

    def make_memory(self) -> Memory:
        memory = Memory(mapped_only=self.mapped_only)
        for address, value in self.memory_words.items():
            if self.mapped_only:
                memory.map(address, value)
            else:
                memory.store(address, value)
        return memory

    def make_fault_handler(self):
        """A pager over the backing store, or None for plain memory."""
        if self.backing is None:
            return None
        backing = self.backing

        def pager(fault, executor) -> bool:
            if fault.kind is FaultKind.MEMORY and fault.address in backing:
                executor.memory.map(fault.address, backing[fault.address])
                return True
            return False

        return pager

    def inputs(self) -> dict:
        """Keyword arguments for the case's check: ``run_oracle`` and
        ``run_diff_trace`` (equivalence) or ``run_security``."""
        if self.check == "security":
            return {
                "vliw": self.program(),
                "config": self.config,
                "policy": self.policy,
                "eval_memory": self.make_memory(),
            }
        return {
            "program": self.program(),
            "model": self.model,
            "config": self.config,
            "eval_memory": self.make_memory(),
            "fault_handler": self.make_fault_handler(),
            "policy_overrides": self.policy_overrides,
        }

    def run(
        self, *, machine_factory=None, sink: MetricsSink = NULL_SINK, **limits
    ):
        """Replay the case through the check it names: an
        ``OracleResult`` for equivalence, a ``SecurityResult`` for
        security.  *limits* are the check's ``max_steps`` /
        ``max_cycles`` budgets; *machine_factory* applies to equivalence
        only."""
        if self.check == "security":
            from repro.taint.oracle import run_security

            return run_security(**self.inputs(), sink=sink, **limits)
        from repro.verify.oracle import run_oracle

        return run_oracle(
            **self.inputs(), machine_factory=machine_factory, sink=sink,
            **limits,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        document = {
            "schema": SCHEMAS[self.check],
            "name": self.name,
            "config": dataclasses.asdict(self.config),
            "memory": {str(a): v for a, v in sorted(self.memory_words.items())},
            "metadata": dict(self.metadata),
        }
        if self.check == "security":
            return {
                **document,
                "vliw": self.program_text,
                "policy": self.policy,
                "expected_kind": self.expected_kind,
            }
        backing = self.backing
        return {
            **document,
            "program": self.program_text,
            "model": self.model,
            "mapped_only": self.mapped_only,
            "backing": (
                None
                if backing is None
                else {str(a): v for a, v in sorted(backing.items())}
            ),
            "policy_overrides": dict(self.policy_overrides),
        }

    @classmethod
    def from_dict(cls, document: dict, *, path=None) -> "ReproCase":
        """Rebuild a case; any malformed document is a :class:`ValueError`
        naming *path* and the reason."""
        from repro.ckpt.state import schema_mismatch_message

        try:
            if not isinstance(document, dict):
                raise ValueError("repro case must be a JSON object")
            schema = document.get("schema")
            check = _CHECKS.get(schema)
            if check is None:
                raise ValueError(
                    "not a repro case: "
                    + schema_mismatch_message(schema, CASE_SCHEMA)
                    + f" or {SECURITY_CASE_SCHEMA!r}"
                )
            fields = {
                "name": document["name"],
                "config": MachineConfig(**document["config"]),
                "memory_words": {
                    int(a): v for a, v in document.get("memory", {}).items()
                },
                "metadata": dict(document.get("metadata", {})),
                "check": check,
            }
            if check == "security":
                policy = document.get("policy", "committed")
                if policy not in POLICIES:
                    raise ValueError(f"unknown taint policy {policy!r}")
                return cls(
                    program_text=document["vliw"],
                    model=HAND_MODEL,
                    policy=policy,
                    expected_kind=document.get("expected_kind"),
                    **fields,
                )
            from repro.compiler.models import resolve_model

            model = document["model"]
            resolve_model(model)  # validate early, not at replay time
            backing = document.get("backing")
            return cls(
                program_text=document["program"],
                model=model,
                mapped_only=bool(document.get("mapped_only", False)),
                backing=(
                    None
                    if backing is None
                    else {int(a): v for a, v in backing.items()}
                ),
                policy_overrides=dict(document.get("policy_overrides", {})),
                **fields,
            )
        except KeyError as error:
            reason = f"missing key {error}"
        except (AttributeError, TypeError, ValueError) as error:
            reason = str(error)
        raise ValueError(_with_path(path, reason))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, *, path=None) -> "ReproCase":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                _with_path(path, f"not JSON ({error})")
            ) from error
        return cls.from_dict(document, path=path)

    def save(self, path: str | Path) -> Path:
        """Freeze the case atomically (temp + ``os.replace``): a kill
        mid-write can never leave a truncated, unreplayable JSON."""
        from repro.ckpt.engine import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ReproCase":
        """Read one case file of either schema.  Every failure mode --
        unreadable file, bad JSON, wrong schema, missing or malformed
        field -- reports the path plus the reason in a
        :class:`ValueError`, never a raw traceback type."""
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ValueError(
                _with_path(path, f"unreadable case ({error})")
            ) from error
        return cls.from_json(text, path=path)

    # -- construction from campaign inputs -----------------------------
    @classmethod
    def from_synthetic(
        cls,
        synthetic,
        model: str,
        config: MachineConfig,
        *,
        resident: Memory | None = None,
        backing: dict[int, int] | None = None,
        policy_overrides: dict | None = None,
        metadata: dict | None = None,
    ) -> "ReproCase":
        """Freeze a synthetic-program campaign input into a case."""
        from repro.isa.printer import format_program

        if resident is not None:
            memory_words = resident.snapshot()
            mapped_only = resident.mapped_only
        else:
            memory_words = synthetic.make_memory().snapshot()
            mapped_only = False
        return cls(
            name=synthetic.program.name,
            program_text=format_program(synthetic.program),
            model=model,
            config=config,
            memory_words=memory_words,
            mapped_only=mapped_only,
            backing=backing,
            policy_overrides=dict(policy_overrides or {}),
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_gadget(
        cls,
        spec,
        config: MachineConfig | None = None,
        *,
        policy: str = "committed",
    ) -> "ReproCase":
        """Freeze a :class:`~repro.taint.gadget.GadgetSpec` into a
        security case."""
        return cls(
            name=f"taint-{spec.seed}-{spec.index}",
            program_text=spec.vliw_text,
            model=HAND_MODEL,
            config=config if config is not None else base_machine(),
            memory_words=dict(spec.memory_words),
            metadata={
                key: getattr(spec, key)
                for key in ("variant", "seed", "index", "expected_leak",
                            "secret_address", "bound", "oob_index")
            },
            check="security",
            policy=policy,
            expected_kind=spec.expected_kind,
        )
