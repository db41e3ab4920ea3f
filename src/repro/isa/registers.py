"""Register-file conventions.

The machine has 32 general-purpose registers ``r0`` .. ``r31``; ``r0`` is
hardwired to zero (writes to it are discarded), following the MIPS convention
of the paper's base machine.  Condition registers ``c0`` .. ``c7`` hold branch
conditions; architecturally they live in the condition code register (CCR).
A machine configuration may expose fewer CCR entries than ``NUM_CREGS`` (the
paper evaluates K in {1, 2, 4, 8}); the region-forming compiler allocates CCR
entries per region and respects the configured K.
"""

NUM_REGS = 32
NUM_CREGS = 8
ZERO_REG = 0
