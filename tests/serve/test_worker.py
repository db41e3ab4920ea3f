"""The pool worker's program and compile caches.

A worker keeps one program entry per program (parse, CFG, training-run
predictor, scalar summaries per input) and one compile per group.  What
a job returns must not depend on what the worker ran before it, and a
program must be parsed once and scalar-run once per distinct input.
"""

import json

import pytest

import repro.serve.worker as worker
from repro.serve.protocol import parse_request, resolve_request
from repro.workloads import get_workload
from repro.workloads.registry import KERNELS

#: Sums eight memory words and counts the even ones: a data-dependent
#: branch, so the training run on its memory image shapes the compile.
INLINE = """
    li   r1, 0
    li   r2, 0
    li   r3, 0
loop:
    ld   r4, r1, 100
    add  r2, r2, r4
    andi r5, r4, 1
    ceq  c0, r5, r0
    br   c0, even
    jmp  next
even:
    addi r3, r3, 1
next:
    addi r1, r1, 1
    clti c1, r1, 8
    br   c1, loop
    out  r2
    out  r3
    halt
"""
INLINE_MEMORY = {
    str(100 + i): value for i, value in enumerate((3, 8, 5, 2, 2, 9, 4, 6))
}

NARROW = {"issue_width": 2, "num_alu": 2, "num_branch": 2, "num_load": 1}
CONFIGS = ({}, NARROW)
EVAL_SEEDS = (2, 3)
MODELS = ("scalar", "region_pred", "trace_pred")


def _job(job_id, **fields):
    return resolve_request(parse_request({"id": job_id, **fields}))


def _mixed_jobs():
    """Kernels x models x configs x eval seeds, one security job and an
    inline program with a memory image, in an order that reuses every
    program entry across groups."""
    jobs = []
    for kernel in KERNELS:
        for model in MODELS:
            for index, config in enumerate(CONFIGS):
                for seed in EVAL_SEEDS:
                    jobs.append(
                        _job(
                            f"{kernel}-{model}-{index}-{seed}",
                            workload=kernel,
                            model=model,
                            config=config,
                            seed=seed,
                        )
                    )
    jobs.append(
        _job("grep-security", kind="security", workload="grep", seed=2)
    )
    for model in MODELS:
        jobs.append(
            _job(
                f"inline-{model}",
                program=INLINE,
                model=model,
                memory=INLINE_MEMORY,
            )
        )
    return jobs


def _dump(outcomes) -> str:
    return json.dumps(outcomes, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def runs():
    """The mixed list run warm (caches cleared once, then kept) and cold
    (both cache levels cleared before every job), with the warm run's
    telemetry deltas."""
    jobs = _mixed_jobs()
    worker.clear_caches()
    before = (
        worker.program_count,
        worker.compile_count,
        worker.scalar_run_count,
    )
    warm = [worker.execute_batch((job,))[0] for job in jobs]
    counts = {
        "programs": worker.program_count - before[0],
        "compiles": worker.compile_count - before[1],
        "scalar_runs": worker.scalar_run_count - before[2],
    }
    cold = []
    for job in jobs:
        worker.clear_caches()
        cold.append(worker.execute_batch((job,))[0])
    worker.clear_caches()
    return jobs, warm, cold, counts


class TestWarmEqualsCold:
    def test_every_job_succeeds(self, runs):
        jobs, warm, _, _ = runs
        failed = [job.id for job, out in zip(jobs, warm) if "ok" not in out]
        assert failed == []

    def test_warm_worker_is_byte_identical_to_cold(self, runs):
        _, warm, cold, _ = runs
        assert _dump(warm) == _dump(cold)

    def test_second_config_on_a_profiled_workload(self):
        # The predictor is keyed by instruction uid: it is only valid on
        # the parse it was profiled on.  A group compiled later on an
        # already-profiled program must schedule as a cold worker does.
        first = _job("a", workload="compress", model="region_pred")
        second = _job(
            "b", workload="compress", model="region_pred", config=NARROW
        )
        worker.clear_caches()
        worker.run_job(first)
        compiles = worker.compile_count
        warm = worker.run_job(second)
        assert worker.compile_count == compiles + 1
        worker.clear_caches()
        cold = worker.run_job(second)
        worker.clear_caches()
        assert warm["machine_cycles"] == cold["machine_cycles"]
        assert warm == cold


class TestRunOnceCounts:
    def test_each_program_is_built_once(self, runs):
        jobs, _, _, counts = runs
        programs = {job.workload or job.program_text for job in jobs}
        assert counts["programs"] == len(programs) == len(KERNELS) + 1

    def test_one_scalar_run_per_distinct_input(self, runs):
        # Training inputs: each workload's registry training seed, and
        # an inline program's memory image.  Evaluation inputs: each
        # (workload, seed) a simulate job asks for, and an inline
        # program's memory image -- the same input it trains on, so one
        # run serves both.
        jobs, _, _, counts = runs
        inputs = set()
        for job in jobs:
            if job.workload is None:
                inputs.add((job.program_text, job.memory_words))
                continue
            if job.model != "scalar":
                train_seed = get_workload(job.workload).train_seed
                inputs.add((job.workload, train_seed))
            if job.kind == "simulate":
                inputs.add((job.workload, job.seed))
        assert counts["scalar_runs"] == len(inputs)
        assert len(inputs) == len(KERNELS) * (1 + len(EVAL_SEEDS)) + 1

    def test_one_compile_per_group(self, runs):
        jobs, _, _, counts = runs
        groups = {job.group for job in jobs if job.model != "scalar"}
        assert counts["compiles"] == len(groups)
