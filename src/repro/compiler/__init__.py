"""The instruction scheduler (Section 3.3) and its model variants.

All eight evaluated machine/scheduling models are policy variants of one
windowed scheduler:

1. a *region tree* is grown from a header block by tail duplication
   (:mod:`repro.compiler.regiontree`) -- a trace is the single-child
   special case, global scheduling the two-block special case;
2. the tree is linearized and predicated
   (:mod:`repro.compiler.predication`), re-indexing condition-set
   instructions onto allocated CCR entries; restricted models keep their
   conditional branches, predicating models eliminate them;
3. the rename-hoist transform (:mod:`repro.compiler.rename`) gives
   compiler-only models their legal speculative motion (renamed
   destination + predicated copy, with dead-copy elimination);
4. a dependence graph encodes each model's speculation constraints
   (:mod:`repro.compiler.dependence`), including the predicating-specific
   rules: shadow-storage conflicts, commit-ordering (WAR vs commit),
   exception-taint barriers for condition-sets, and region-exit closure;
5. a resource-constrained list scheduler packs bundles
   (:mod:`repro.compiler.list_scheduler`);
6. scheduled units are counted against the scalar dynamic trace
   (:mod:`repro.compiler.unit`), and on request emit a real
   :class:`~repro.machine.program.VLIWProgram`
   (:mod:`repro.compiler.vliw_codegen`) for the cycle-level machine.

:mod:`repro.compiler.models` holds the eight concrete policies;
:mod:`repro.compiler.pipeline` ties everything together.
"""

from repro.compiler.models import MODELS, get_policy
from repro.compiler.pipeline import compile_program, evaluate_model

__all__ = ["MODELS", "compile_program", "evaluate_model", "get_policy"]
