"""Every region schedule of one ``experiment all`` is legal.

The sweep's numbers come from the trace-driven cycle counter, which
trusts the scheduler, and the sweep runs no machine: nothing in it would
notice a schedule that issues a consumer before its producer's result is
ready, or packs more operations into a bundle than the machine can
issue.  This checks every schedule the sweep compiled, on the machine it
was compiled for:

* every dependence edge ``(u, v, latency)`` has
  ``cycle[v] >= cycle[u] + latency``;
* every bundle fits the issue width and each function-unit limit, by
  the check the machine applies to the code it runs
  (:func:`~repro.machine.config.bundle_violation`);
* every region item is issued exactly once.

The sweep is the session-wide ``experiment_all_sweep`` (tests/conftest.py).
"""

from __future__ import annotations

from repro.machine.config import bundle_violation


def test_sweep_compiles_every_region_it_counts(experiment_all_sweep):
    schedules = experiment_all_sweep.schedules
    assert len(schedules) >= experiment_all_sweep.counts["compile"] > 0
    assert sum(len(graph.edges) for graph, _, _ in schedules) > 0


def test_every_dependence_edge_is_honoured(experiment_all_sweep):
    violations = [
        (graph.region.tree.header_origin, u, v, latency)
        for graph, _, schedule in experiment_all_sweep.schedules
        for u, v, latency in graph.edges
        if schedule.cycle_of[v] < schedule.cycle_of[u] + latency
    ]
    assert violations == []


def test_every_bundle_fits_the_machine(experiment_all_sweep):
    for graph, config, schedule in experiment_all_sweep.schedules:
        items = graph.region.items
        issued = sorted(i for bundle in schedule.bundles for i in bundle)
        assert issued == list(range(len(items)))
        for bundle in schedule.bundles:
            ops = [items[i].instr for i in bundle]
            assert bundle_violation(config, ops) is None
