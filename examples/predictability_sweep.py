"""Sweep branch predictability and watch the region-vs-trace gap move.

The paper's causal story (Table 3 -> Figure 7): region predicating beats
trace predicating exactly where branches are unpredictable.  The kernels
fix their predictability; this example puts it under experimental control
using the synthetic workload generator's knob, sweeping the bias of every
data-dependent branch from coin-flip to near-certain and measuring both
predicating models on the same programs.

Expected output shape: region predicating never loses to trace
predicating, and both models improve as branches become predictable.  In
randomly generated programs with several branches per region the gap does
not fully close even at high predictability: off-trace probabilities
compound across the branches of a window, and the K=4 condition budget
caps how much of a deep nest either model can cover -- the same resource
sensitivity the paper explores in Figure 8.  The six benchmark kernels
(one dominant branch per loop) show the clean crossover: see Figure 7,
where grep/nroff make region ~= trace and compress/eqntott/li do not.

Run:  python examples/predictability_sweep.py
"""

from repro.compiler import evaluate_model
from repro.eval.experiments import geomean
from repro.eval.report import render_table
from repro.machine.config import base_machine
from repro.workloads.synthetic import generate

SEEDS = range(8)
LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.97, 0.995)


def speedups_at(predictability: float) -> tuple[float, float]:
    trace, region = [], []
    for seed in SEEDS:
        synthetic = generate(seed, predictability=predictability, size=4)
        for model, bucket in (("trace_pred", trace), ("region_pred", region)):
            evaluation = evaluate_model(
                synthetic.program,
                model,
                base_machine(),
                train_memory=synthetic.make_memory(),
                eval_memory=synthetic.make_memory(),
            )
            bucket.append(evaluation.speedup)
    return geomean(trace), geomean(region)


def main() -> None:
    rows = []
    for level in LEVELS:
        trace, region = speedups_at(level)
        gap = (region / trace - 1.0) * 100
        rows.append(
            (f"{level:.2f}", f"{trace:.2f}", f"{region:.2f}", f"{gap:+.1f}%")
        )
    print(
        render_table(
            ["branch predictability", "trace_pred", "region_pred",
             "region advantage"],
            rows,
            title=(
                "Region vs trace predicating across branch predictability "
                f"(geomean over {len(list(SEEDS))} random programs)"
            ),
        )
    )


if __name__ == "__main__":
    main()
