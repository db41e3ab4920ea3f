"""Instruction-set architecture for the predicating machine.

This package defines the RISC-like ISA used throughout the reproduction:

* :mod:`repro.isa.registers` -- register-file conventions (``r0`` .. ``r31``
  with ``r0`` hardwired to zero, condition registers ``c0`` .. ``c7``).
* :mod:`repro.isa.opcodes` -- the opcode table: operand signatures,
  function-unit classes, latencies, and safety classification.
* :mod:`repro.isa.operands` -- typed operand values (register, condition
  register, immediate, label).
* :mod:`repro.isa.instruction` -- the :class:`~repro.isa.instruction.Instruction`
  record, optionally predicated and with shadow-source markers.
* :mod:`repro.isa.semantics` -- a single source of truth for the functional
  semantics of every opcode, shared by the scalar interpreter and the
  cycle-level VLIW machine so the two can never diverge.
* :mod:`repro.isa.decode` -- the decode-once operation records both
  executors dispatch on.
* :mod:`repro.isa.parser` / :mod:`repro.isa.printer` -- assembly text
  round-tripping, including the paper's predicate / ``.s`` shadow syntax.
* :mod:`repro.isa.encoding` -- instruction-word bit-cost model used by the
  Section 4.2.1 hardware-cost evaluation.

The ISA substitutes for the paper's MIPS R3000 substrate; see DESIGN.md for
the substitution argument.
"""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODES, FuClass, OpcodeInfo
from repro.isa.operands import CReg, Imm, Label, Reg
from repro.isa.parser import ParseError, parse_instruction, parse_program
from repro.isa.printer import format_instruction, format_program
from repro.isa.registers import NUM_CREGS, NUM_REGS, ZERO_REG

__all__ = [
    "CReg",
    "FuClass",
    "Imm",
    "Instruction",
    "Label",
    "NUM_CREGS",
    "NUM_REGS",
    "OPCODES",
    "OpcodeInfo",
    "ParseError",
    "Reg",
    "ZERO_REG",
    "format_instruction",
    "format_program",
    "parse_instruction",
    "parse_program",
]
