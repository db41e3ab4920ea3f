"""The eight evaluated machine/scheduling models (Sections 4.1-4.2).

Each model is a :class:`~repro.compiler.policy.ModelPolicy`; the table
below summarizes how the paper's descriptions map onto policy knobs.
DESIGN.md discusses the modelling choices at length.

===============  ======  ======  ===========  ==============================
model            window  arms    branches     speculation
===============  ======  ======  ===========  ==============================
scalar           --      --      --           none (interpreter baseline)
global           2 blk   trace   retained     safe ops rename-hoisted across
                                              adjacent blocks only
squashing        2 blk   trace   retained     global + unsafe ops cross one
                                              condition by pipeline squash
trace            16 blk  trace   retained     global mechanisms over a full
                                              predicted trace
region           16 blk  both    eliminated   simple predication; squashing
                                              speculation only
boosting         16 blk  trace   retained     everything buffered in shadow
                                              structures up to K branches;
                                              branch resolution stays ordered
trace_pred       16 blk  trace   eliminated   full predicated state buffering
                                              along the predicted path
region_pred      16 blk  both    eliminated   full predicated state buffering
                                              over both paths (this paper)
===============  ======  ======  ===========  ==============================
"""

from __future__ import annotations

from repro.compiler.policy import CrossingRule, Mechanism, ModelPolicy, UNLIMITED

_RENAME_INF = CrossingRule(depth=UNLIMITED, mechanism=Mechanism.RENAME)
_SQUASH_1 = CrossingRule(depth=1, mechanism=Mechanism.SQUASH)
_BUFFER_K = CrossingRule(depth=UNLIMITED, mechanism=Mechanism.BUFFER)
_NONE = CrossingRule.none()

GLOBAL = ModelPolicy(
    name="global",
    both_arms=False,
    window_blocks=2,
    eliminate_branches=False,
    safe=_RENAME_INF,
    unsafe=_NONE,
    load=_NONE,
    store=_NONE,
)

SQUASHING = ModelPolicy(
    name="squashing",
    both_arms=False,
    window_blocks=2,
    eliminate_branches=False,
    safe=_RENAME_INF,
    unsafe=_SQUASH_1,
    load=_SQUASH_1,
    store=_NONE,
)

TRACE = ModelPolicy(
    name="trace",
    both_arms=False,
    window_blocks=16,
    eliminate_branches=False,
    safe=_RENAME_INF,
    unsafe=_SQUASH_1,
    load=_SQUASH_1,
    store=_NONE,
)

REGION = ModelPolicy(
    name="region",
    both_arms=True,
    window_blocks=16,
    eliminate_branches=True,
    safe=CrossingRule(depth=UNLIMITED, mechanism=Mechanism.SQUASH),
    unsafe=_SQUASH_1,
    load=_SQUASH_1,
    store=_NONE,
)

BOOSTING = ModelPolicy(
    name="boosting",
    both_arms=False,
    window_blocks=16,
    eliminate_branches=False,
    safe=_BUFFER_K,
    unsafe=_BUFFER_K,
    load=_BUFFER_K,
    store=_BUFFER_K,
    ordered_cond_sets=True,
)

TRACE_PRED = ModelPolicy(
    name="trace_pred",
    both_arms=False,
    window_blocks=16,
    eliminate_branches=True,
    safe=_BUFFER_K,
    unsafe=_BUFFER_K,
    load=_BUFFER_K,
    store=_BUFFER_K,
)

REGION_PRED = ModelPolicy(
    name="region_pred",
    both_arms=True,
    window_blocks=16,
    eliminate_branches=True,
    safe=_BUFFER_K,
    unsafe=_BUFFER_K,
    load=_BUFFER_K,
    store=_BUFFER_K,
)

MODELS: dict[str, ModelPolicy] = {
    policy.name: policy
    for policy in (
        GLOBAL,
        SQUASHING,
        TRACE,
        REGION,
        BOOSTING,
        TRACE_PRED,
        REGION_PRED,
    )
}


#: Other model names: the paper's "predicating" model is region_pred.
MODEL_ALIASES = {"predicating": "region_pred"}

#: Every name a command or a serve job accepts: aliases, then models.
MODEL_NAMES = (*MODEL_ALIASES, *MODELS)


def resolve_model(model: str) -> str:
    """The model *model* names (accepts aliases)."""
    name = MODEL_ALIASES.get(model, model)
    if name not in MODELS:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(MODEL_NAMES)}"
        )
    return name


def get_policy(name: str) -> ModelPolicy:
    """Look up a model policy by name ('scalar' has no policy)."""
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from {sorted(MODELS)}"
        ) from None
