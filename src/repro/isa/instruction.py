"""The instruction record.

An :class:`Instruction` pairs an opcode with typed operands and, for
scheduled predicating code, a predicate and shadow-source markers:

* ``pred`` is the commit condition of the paper's instruction format
  (``predicate ? operation``); ``ALWAYS`` (``alw``) marks non-speculative
  instructions.
* ``shadow`` is the set of *source operand positions* that read the shadow
  (speculative) storage of their register -- the paper's ``.s`` suffix.
  Destinations never carry the marker because the control path selects the
  destination storage at run time.

Instructions are immutable; compiler passes build rewritten copies with
:meth:`Instruction.replace`.  Identity for dependence bookkeeping is by
object (``uid``), not value, because a region can legitimately contain two
textually identical instructions (after tail duplication).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.core.predicate import ALWAYS, Predicate
from repro.isa.opcodes import (
    CONDITIONAL_BRANCH_OPCODES,
    CONTROL_OPCODES,
    OPCODES,
    FuClass,
    OpcodeInfo,
)
from repro.isa.operands import CReg, Imm, Label, Operand, Reg

_uid_counter = itertools.count()

#: The fields a copy may change and still share its original's views.
_COPY_FIELDS = frozenset({"pred", "shadow", "uid"})
#: The decoded views (``cached_property``) such a copy carries over.
_VIEWS = (
    "info", "fu", "latency", "is_cond_set", "dest_reg", "dest_creg",
    "src_regs", "src_cregs", "target", "imm", "source_positions",
)


@dataclass(frozen=True)
class Instruction:
    """One machine instruction, optionally predicated."""

    opcode: str
    operands: tuple[Operand, ...] = ()
    pred: Predicate = ALWAYS
    shadow: frozenset[int] = frozenset()
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self) -> None:
        info = OPCODES.get(self.opcode)
        if info is None:
            raise ValueError(f"unknown opcode: {self.opcode!r}")
        if len(self.operands) != len(info.signature):
            raise ValueError(
                f"{self.opcode} expects {len(info.signature)} operands, "
                f"got {len(self.operands)}"
            )
        for operand, role in zip(self.operands, info.signature):
            expected: type
            if role in ("rd", "rs"):
                expected = Reg
            elif role in ("cd", "cu"):
                expected = CReg
            elif role == "imm":
                expected = Imm
            else:
                expected = Label
            if not isinstance(operand, expected):
                raise ValueError(
                    f"{self.opcode} operand {operand!r} should be {expected.__name__}"
                )
        if self.shadow:
            self._check_shadow()

    def _check_shadow(self) -> None:
        signature = self.info.signature
        for position in self.shadow:
            if position >= len(signature) or signature[position] != "rs":
                raise ValueError(
                    f"shadow marker on non-source operand {position} of {self.opcode}"
                )

    # ------------------------------------------------------------------
    # Static properties derived from the opcode table.
    #
    # The derived views are ``cached_property``: instructions are
    # immutable, and the compiler passes re-read them (sources,
    # destination, latency) many times per instruction, so each is
    # computed once per instance.  ``cached_property`` stores into the
    # instance ``__dict__`` directly, which a frozen dataclass permits.
    # The executors read none of them per step or cycle: both decode
    # their program once (:mod:`repro.isa.decode`).  A view may depend
    # only on the opcode and operands: :meth:`replace` hands every cached
    # value to copies that differ in ``pred``, ``shadow`` or ``uid``.
    # ------------------------------------------------------------------
    @cached_property
    def info(self) -> OpcodeInfo:
        return OPCODES[self.opcode]

    @cached_property
    def fu(self) -> FuClass:
        return self.info.fu

    @cached_property
    def latency(self) -> int:
        return self.info.latency

    @property
    def is_unsafe(self) -> bool:
        return self.info.unsafe

    @property
    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCH_OPCODES

    @property
    def is_load(self) -> bool:
        return self.opcode == "ld"

    @property
    def is_store(self) -> bool:
        return self.opcode == "st"

    @cached_property
    def is_cond_set(self) -> bool:
        return self.info.writes_creg

    @property
    def is_speculable(self) -> bool:
        """Whether the instruction may execute under an unspecified predicate.

        Control transfers cannot be speculative in the predicating machine:
        a jump whose predicate is unspecified at issue is a schedule bug.
        """
        return not self.is_control

    # ------------------------------------------------------------------
    # Def/use views.
    # ------------------------------------------------------------------
    @cached_property
    def dest_reg(self) -> int | None:
        """Destination general register index, or None."""
        for operand, role in zip(self.operands, self.info.signature):
            if role == "rd":
                assert isinstance(operand, Reg)
                return operand.index
        return None

    @cached_property
    def dest_creg(self) -> int | None:
        """Destination condition register index, or None."""
        for operand, role in zip(self.operands, self.info.signature):
            if role == "cd":
                assert isinstance(operand, CReg)
                return operand.index
        return None

    @cached_property
    def src_regs(self) -> tuple[int, ...]:
        """Source general register indices, in operand order."""
        return tuple(
            operand.index
            for operand, role in zip(self.operands, self.info.signature)
            if role == "rs" and isinstance(operand, Reg)
        )

    @cached_property
    def src_cregs(self) -> tuple[int, ...]:
        """Source condition register indices (branch uses)."""
        return tuple(
            operand.index
            for operand, role in zip(self.operands, self.info.signature)
            if role == "cu" and isinstance(operand, CReg)
        )

    @cached_property
    def target(self) -> str | None:
        """Control-transfer target label, or None."""
        for operand in self.operands:
            if isinstance(operand, Label):
                return operand.name
        return None

    @cached_property
    def imm(self) -> int | None:
        """Immediate value, or None."""
        for operand in self.operands:
            if isinstance(operand, Imm):
                return operand.value
        return None

    @cached_property
    def source_positions(self) -> tuple[int, ...]:
        """Operand positions that are general-register sources."""
        return tuple(
            position
            for position, role in enumerate(self.info.signature)
            if role == "rs"
        )

    def replace(self, **changes: Any) -> Instruction:
        """Return a copy with *changes* applied and a fresh ``uid``.

        A copy that changes only ``pred``, ``shadow`` or ``uid`` keeps
        the opcode and operands, so it takes over *self*'s decoded views
        (decoding them on *self* first, once for all its copies) and
        re-validates only ``shadow``.
        """
        changes.setdefault("uid", next(_uid_counter))
        if not changes.keys() <= _COPY_FIELDS:
            return replace(self, **changes)
        state = self.__dict__
        if _VIEWS[-1] not in state:
            for name in _VIEWS:
                getattr(self, name)
        copy = object.__new__(Instruction)
        copy.__dict__.update(state)
        copy.__dict__.update(changes)
        if "shadow" in changes:
            copy._check_shadow()
        return copy

    def rename_reg(self, old: int, new: int, *, dest: bool, srcs: bool) -> Instruction:
        """Return a copy with register *old* renamed to *new*.

        ``dest``/``srcs`` select which operand roles are rewritten, which
        the renaming pass uses to split a def from its uses.
        """
        new_operands = []
        for operand, role in zip(self.operands, self.info.signature):
            if isinstance(operand, Reg) and operand.index == old:
                if (role == "rd" and dest) or (role == "rs" and srcs):
                    operand = Reg(new)
            new_operands.append(operand)
        return self.replace(operands=tuple(new_operands))

    def __str__(self) -> str:
        from repro.isa.printer import format_instruction

        return format_instruction(self)
