"""Flat memory across runs: a closed deployment leaves nothing to the cyclic
collector.

* Every system, under honest and faulty-node presets, is freed by
  reference counting alone once it is closed and dropped: with the cyclic
  collector off, ``gc.collect()`` afterwards finds nothing.
* Back-to-back ``repro.api.run`` points keep the tracked-object count flat.
* ``close()`` happens after collection, so it never moves a result digest.
"""

import gc

import pytest

from repro.api import RunSpec, build_deployment, resolve, result_digest, run

SYSTEMS = ("serverless_bft", "serverless_cft", "noshim", "pbft_replicated")

#: ``(system, preset, overrides)``.  ``noshim`` has one shim node, so the
#: four-node ``rolling-restart`` timeline does not apply to it.
#: ``pbft_replicated`` supports neither executor faults nor fault
#: timelines, so it runs its faulty-node preset instead.  The last cases
#: leave work queued when the deployment closes: ``region-outage`` binds
#: its fault plan to the network, a concurrency limit of one leaves
#: launches waiting in the cloud, and single-core replicas leave jobs
#: waiting on a CPU.
CASES = [
    pytest.param(system, preset, {}, id=f"{system}-{preset}")
    for system in ("serverless_bft", "serverless_cft", "noshim")
    for preset in ("baseline", "byzantine-executors", "primary-crash", "rolling-restart")
    if not (system == "noshim" and preset == "rolling-restart")
] + [
    pytest.param("pbft_replicated", "baseline", {}, id="pbft_replicated-baseline"),
    pytest.param(
        "pbft_replicated", "request-suppression", {}, id="pbft_replicated-request-suppression"
    ),
    pytest.param("serverless_bft", "region-outage", {}, id="serverless_bft-region-outage"),
    pytest.param(
        "serverless_bft", "baseline", {"protocol.executor_concurrency_limit": 1},
        id="serverless_bft-one-executor-slot",
    ),
    pytest.param(
        "pbft_replicated", "baseline", {"protocol.shim_cores": 1},
        id="pbft_replicated-one-core",
    ),
]

#: A deployment small enough to run many times over.
SMALL = {"protocol.num_clients": 40, "protocol.client_groups": 2, "workload.clients": 40}

#: Tracked objects 19 further points may add.  A leaked SMALL deployment
#: holds about 10,000; a point that leaks nothing adds a handful.
FLAT_MARGIN = 1_000


def _spec(system: str, preset: str = "baseline", overrides=None, seed: int = 3) -> RunSpec:
    return RunSpec(
        system=system,
        base="scale",
        scenarios=[] if preset == "baseline" else [preset],
        overrides=dict(overrides or {}),
        seed=seed,
        duration=0.3,
        warmup=0.05,
    )


def _run(resolved, close: bool = True):
    deployment = build_deployment(resolved)
    result = deployment.run(
        duration=float(resolved["duration"]), warmup=float(resolved["warmup"])
    )
    if close:
        deployment.close()
    return result


def _cyclic_garbage(resolved, close: bool = True) -> int:
    """Objects the cyclic collector finds once a run's deployment is dropped."""
    # The first run of a system imports modules lazily, and an import leaves
    # cyclic garbage of its own: warm up, then start from a clean heap.
    _run(resolved)
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _run(resolved, close=close)
        return gc.collect()
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("system, preset, overrides", CASES)
def test_closed_deployment_leaves_no_cyclic_garbage(system, preset, overrides):
    assert _cyclic_garbage(resolve(_spec(system, preset, overrides))) == 0


def test_an_unclosed_deployment_is_left_to_the_cyclic_collector():
    """The control for the test above: without close() the run's state
    stays reachable through cycles."""
    assert _cyclic_garbage(resolve(_spec("serverless_bft")), close=False) > 1_000


def test_back_to_back_runs_keep_tracked_objects_flat():
    specs = [
        _spec(SYSTEMS[index % len(SYSTEMS)], overrides=SMALL, seed=index + 1)
        for index in range(20)
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        run(specs[0])
        after_first = len(gc.get_objects())
        for spec in specs[1:]:
            run(spec)
        growth = len(gc.get_objects()) - after_first
    finally:
        if enabled:
            gc.enable()
    assert growth <= FLAT_MARGIN, f"19 runs retained {growth} tracked objects"


@pytest.mark.parametrize("system", SYSTEMS)
def test_close_does_not_change_the_result_digest(system):
    spec = _spec(system, overrides=SMALL)
    resolved = resolve(spec)
    deployment = build_deployment(resolved)
    result = deployment.run(
        duration=float(resolved["duration"]), warmup=float(resolved["warmup"])
    )
    digest = result_digest(result)
    deployment.close()
    assert result_digest(result) == digest
    # repro.api.run closes its deployment; an unclosed run agrees with it.
    assert result_digest(_run(resolved, close=False)) == digest
    assert result_digest(run(spec)) == digest
