"""Workload registry.

A :class:`Workload` bundles a scalar program with its input generator and
the metadata Table 2 reports.  ``all_workloads`` returns the six
benchmark analogues in the paper's order.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.isa.program import Program
from repro.sim.memory import Memory


@dataclass(frozen=True)
class Workload:
    """One benchmark-analogue kernel."""

    name: str
    description: str
    program: Program
    make_memory: Callable[[int], Memory]  # seed -> initialized memory
    train_seed: int = 1
    eval_seed: int = 2
    remarks: str = ""

    def train_memory(self) -> Memory:
        return self.make_memory(self.train_seed)

    def eval_memory(self) -> Memory:
        return self.make_memory(self.eval_seed)


#: The six kernels, in the paper's Table 2 order; each names the module
#: under :mod:`repro.workloads` whose ``workload()`` builds it.
KERNELS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")


def _build(name: str) -> Workload:
    module = importlib.import_module(f"repro.workloads.{name}")
    return module.workload()


def all_workloads() -> list[Workload]:
    """The six kernels, in the paper's Table 2 order."""
    return [_build(name) for name in KERNELS]


def get_workload(name: str) -> Workload:
    """Build the one kernel called *name* (the others are not parsed)."""
    if name not in KERNELS:
        raise KeyError(f"unknown workload {name!r}")
    return _build(name)
