"""Reproduce the paper's evaluation tables and figures in one run.

Runs the whole harness: Table 2 (benchmarks), Table 3 (branch
predictability), Figure 6 (restricted speculative models), Figure 7
(predicating vs conventional), Figure 8 (issue width x speculation
depth), the Section 4.2.1 hardware-cost analysis, and both ablations.

This is the same code path the benchmark suite asserts shapes on; here it
just prints everything for reading. Takes a couple of minutes.

Run:  python examples/model_comparison.py [--quick]
"""

import sys
import time

from repro.eval import (
    ExperimentContext,
    ExperimentOptions,
    run_btb_ablation,
    run_join_sharing,
    run_profile_sensitivity,
    run_unrolling,
    run_code_expansion,
    run_counter_ablation,
    run_fig6,
    run_fig7,
    run_fig8,
    run_hwcost,
    run_shadow_ablation,
    run_table2,
    run_table3,
)


def main() -> None:
    quick = "--quick" in sys.argv
    ctx = ExperimentContext()
    options = ExperimentOptions(
        widths=(2, 4) if quick else (2, 4, 8),
        depths=(1, 4) if quick else (1, 2, 4, 8),
    )
    started = time.time()

    for title, runner in [
        ("Table 2", lambda: run_table2(ctx)),
        ("Table 3", lambda: run_table3(ctx)),
        ("Figure 6", lambda: run_fig6(ctx)),
        ("Figure 7", lambda: run_fig7(ctx, options)),
        ("Figure 8", lambda: run_fig8(ctx, options)),
        ("Hardware cost", run_hwcost),
        ("Shadow-register ablation", lambda: run_shadow_ablation(ctx)),
        ("Counter-predicate ablation", lambda: run_counter_ablation(ctx)),
        ("BTB-optimism ablation", lambda: run_btb_ablation(ctx)),
        ("Static code expansion", lambda: run_code_expansion(ctx)),
        ("Loop-unrolling extension", lambda: run_unrolling(ctx)),
        ("Join-sharing extension", lambda: run_join_sharing(ctx)),
        ("Profile sensitivity", lambda: run_profile_sensitivity(ctx)),
    ]:
        result = runner()
        print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")
        print(result.render())

    print(f"\n[total elapsed: {time.time() - started:.1f}s]")


if __name__ == "__main__":
    main()
