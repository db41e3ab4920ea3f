"""The opcode table.

Every opcode carries:

* an *operand signature* -- a tuple of role codes describing each operand
  position (``rd`` destination register, ``rs`` source register, ``cd``
  destination condition register, ``cu`` source condition register, ``imm``
  immediate, ``label`` control target);
* a *function-unit class* (:class:`FuClass`) used by the resource model of
  the list scheduler and the VLIW machine (the paper's base machine has
  4 ALUs, 4 branch units, 2 load units, 1 store unit);
* a *latency* in cycles (loads take 2 cycles, everything else 1, matching
  the paper's Section 4 assumptions);
* an *unsafe* flag marking opcodes whose speculative execution may raise an
  exception (loads can fault on a bad address; ``div``/``rem`` fault on a
  zero divisor).  Unsafe opcodes are exactly the ones whose speculative
  motion the restricted models must forgo and the predicating models buffer
  with the E flag.

Condition-set opcodes (``clt`` etc.) and control transfers execute on the
branch units; this mirrors the paper's separation of the control path from
the datapath.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FuClass(enum.Enum):
    """Function-unit class an opcode executes on."""

    ALU = "alu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    NONE = "none"  # nop / halt consume an issue slot but no unit


@dataclass(frozen=True, slots=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    name: str
    signature: tuple[str, ...]
    fu: FuClass
    latency: int = 1
    unsafe: bool = False

    @property
    def writes_creg(self) -> bool:
        return "cd" in self.signature

    @property
    def is_control(self) -> bool:
        return "label" in self.signature


def _op(
    name: str,
    signature: tuple[str, ...],
    fu: FuClass,
    latency: int = 1,
    unsafe: bool = False,
) -> OpcodeInfo:
    return OpcodeInfo(name, signature, fu, latency, unsafe)


_RRR = ("rd", "rs", "rs")
_RRI = ("rd", "rs", "imm")
_CRR = ("cd", "rs", "rs")
_CRI = ("cd", "rs", "imm")

OPCODES: dict[str, OpcodeInfo] = {
    op.name: op
    for op in [
        # Three-address ALU operations.
        _op("add", _RRR, FuClass.ALU),
        _op("sub", _RRR, FuClass.ALU),
        _op("mul", _RRR, FuClass.ALU),
        _op("div", _RRR, FuClass.ALU, unsafe=True),
        _op("rem", _RRR, FuClass.ALU, unsafe=True),
        _op("and", _RRR, FuClass.ALU),
        _op("or", _RRR, FuClass.ALU),
        _op("xor", _RRR, FuClass.ALU),
        _op("nor", _RRR, FuClass.ALU),
        _op("sll", _RRR, FuClass.ALU),
        _op("srl", _RRR, FuClass.ALU),
        _op("sra", _RRR, FuClass.ALU),
        _op("slt", _RRR, FuClass.ALU),
        _op("sle", _RRR, FuClass.ALU),
        _op("seq", _RRR, FuClass.ALU),
        _op("sne", _RRR, FuClass.ALU),
        _op("min", _RRR, FuClass.ALU),
        _op("max", _RRR, FuClass.ALU),
        # Immediate ALU operations.
        _op("addi", _RRI, FuClass.ALU),
        _op("muli", _RRI, FuClass.ALU),
        _op("andi", _RRI, FuClass.ALU),
        _op("ori", _RRI, FuClass.ALU),
        _op("xori", _RRI, FuClass.ALU),
        _op("slli", _RRI, FuClass.ALU),
        _op("srli", _RRI, FuClass.ALU),
        _op("srai", _RRI, FuClass.ALU),
        _op("slti", _RRI, FuClass.ALU),
        _op("seqi", _RRI, FuClass.ALU),
        _op("snei", _RRI, FuClass.ALU),
        _op("li", ("rd", "imm"), FuClass.ALU),
        _op("mov", ("rd", "rs"), FuClass.ALU),
        # Condition-set operations (write a CCR entry; branch unit).
        _op("clt", _CRR, FuClass.BRANCH),
        _op("cle", _CRR, FuClass.BRANCH),
        _op("cgt", _CRR, FuClass.BRANCH),
        _op("cge", _CRR, FuClass.BRANCH),
        _op("ceq", _CRR, FuClass.BRANCH),
        _op("cne", _CRR, FuClass.BRANCH),
        _op("clti", _CRI, FuClass.BRANCH),
        _op("clei", _CRI, FuClass.BRANCH),
        _op("cgti", _CRI, FuClass.BRANCH),
        _op("cgei", _CRI, FuClass.BRANCH),
        _op("ceqi", _CRI, FuClass.BRANCH),
        _op("cnei", _CRI, FuClass.BRANCH),
        # Memory operations: "ld rd, rs, imm" loads mem[rs+imm];
        # "st rs(value), rs(addr), imm" stores to mem[addr+imm].
        _op("ld", ("rd", "rs", "imm"), FuClass.LOAD, latency=2, unsafe=True),
        _op("st", ("rs", "rs", "imm"), FuClass.STORE),
        # Control transfers: "br cu, label" branches when cu is true;
        # "brf cu, label" branches when cu is false; "jmp label" always.
        # "br2 cu, label, label" goes to the first label when cu is true,
        # else to the second (emitted by the VLIW code generator only).
        _op("br", ("cu", "label"), FuClass.BRANCH),
        _op("brf", ("cu", "label"), FuClass.BRANCH),
        _op("br2", ("cu", "label", "label"), FuClass.BRANCH),
        _op("jmp", ("label",), FuClass.BRANCH),
        _op("halt", (), FuClass.NONE),
        # Observable output (the validation channel between scalar and
        # scheduled executions).
        _op("out", ("rs",), FuClass.STORE),
        _op("nop", (), FuClass.NONE),
    ]
}

CONTROL_OPCODES = frozenset({"br", "brf", "br2", "jmp", "halt"})
CONDITIONAL_BRANCH_OPCODES = frozenset({"br", "brf"})
COND_SET_OPCODES = frozenset(name for name, op in OPCODES.items() if op.writes_creg)
UNSAFE_OPCODES = frozenset(name for name, op in OPCODES.items() if op.unsafe)
