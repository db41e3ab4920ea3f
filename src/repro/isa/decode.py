"""Decode-once operation records, shared by both executors.

The scalar interpreter (:mod:`repro.sim.interpreter`) and the VLIW
machine (:mod:`repro.machine.vliw`) each decode their program once, at
construction, into :class:`DecodedOp` records and then dispatch on the
int ``kind`` and call ``fn`` directly: no opcode string compares and no
re-reading of :class:`~repro.isa.instruction.Instruction` views per
step or cycle.  The semantic functions are the ones in
:mod:`repro.isa.semantics`, so one decoder feeds both executors the
same behaviour.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODES, OpcodeInfo
from repro.isa.printer import format_instruction
from repro.isa.semantics import ALU_SEMANTICS, COND_SEMANTICS

# Decoded op kinds, in issue-loop test order; every kind from BR on is a
# control transfer (never speculable).
ALU, LOAD, STORE, OUT, COND, NOP, BR, BRF, JUMP, HALT = range(10)
_KIND_OF_OPCODE = {
    "ld": LOAD,
    "st": STORE,
    "out": OUT,
    "nop": NOP,
    "br": BR,
    "brf": BRF,
    "jmp": JUMP,
    "halt": HALT,
}


def _plan(info: OpcodeInfo) -> tuple:
    """Where each operand role sits in *info*'s signature, plus the
    kind, semantic function and latency every op of the opcode shares."""
    roles = info.signature

    def at(*wanted: str) -> int | None:
        return next((i for i, role in enumerate(roles) if role in wanted), None)

    kind = _KIND_OF_OPCODE.get(info.name, COND if info.writes_creg else ALU)
    semantics = COND_SEMANTICS if kind == COND else ALU_SEMANTICS
    sources = tuple(i for i, role in enumerate(roles) if role == "rs")
    assert len(sources) <= 2, info.name
    return (
        kind,
        semantics.get(info.name),
        info.latency,
        sources,
        at("rd"),
        # The condition register written (condition-set) or read (branch).
        at("cd", "cu"),
        at("imm"),
        at("label"),
    )


#: Per-opcode decode plan, derived once from the opcode table.
_PLANS = {name: _plan(info) for name, info in OPCODES.items()}


class DecodedOp:
    """One operation decoded for execution.

    Everything an executor needs that does not depend on machine state:
    the kind to dispatch on, the predicate's masks, the register sources
    (``srcs`` pairs each with its ``.s`` flag; ``regs`` is the plain
    index tuple), the semantic function, and (when an observer prints
    ops) the rendered instruction text.  Operands are read straight from
    the positions in the opcode's plan -- every op of a fresh program is
    decoded, and the :class:`Instruction` views would each rescan the
    signature.
    """

    __slots__ = (
        "op", "kind", "pred", "care", "want", "dest", "creg", "srcs",
        "regs", "imm", "latency", "fn", "target", "text",
    )

    def __init__(self, op: Instruction, render: bool = False):
        (
            self.kind, self.fn, self.latency,
            src_at, dest_at, creg_at, imm_at, target_at,
        ) = _PLANS[op.opcode]
        operands = op.operands
        self.op = op
        pred = self.pred = op.pred
        self.care = pred.care
        self.want = pred.want
        # Every opcode reads at most two registers (see ``_plan``);
        # spelling the cases out avoids a comprehension per op.
        shadow = op.shadow
        if len(src_at) == 2:
            first, second = src_at
            a, b = operands[first].index, operands[second].index
            self.regs = (a, b)
            self.srcs = ((a, first in shadow), (b, second in shadow))
        elif src_at:
            (first,) = src_at
            a = operands[first].index
            self.regs = (a,)
            self.srcs = ((a, first in shadow),)
        else:
            self.regs = self.srcs = ()
        self.dest = None if dest_at is None else operands[dest_at].index
        self.creg = None if creg_at is None else operands[creg_at].index
        self.imm = None if imm_at is None else operands[imm_at].value
        self.target = None if target_at is None else operands[target_at].name
        self.text = format_instruction(op) if render else None
