"""Tests for the analytical performance model and its calibration."""

import pytest

from tests.helpers import make_config, make_workload
from repro.core.config import ConflictMode, ProtocolConfig
from repro.errors import ConfigurationError
from repro.perfmodel.calibration import calibration_ratio
from repro.perfmodel.model import AnalyticalModel, SystemKind
from repro.workload.ycsb import YCSBConfig


def paper_config(**overrides) -> ProtocolConfig:
    params = dict(shim_nodes=8, batch_size=100, num_executors=3, num_executor_regions=3,
                  num_clients=80_000, client_groups=32)
    params.update(overrides)
    return ProtocolConfig(**params)


def paper_workload(**overrides) -> YCSBConfig:
    params = dict(num_records=600_000, clients=256)
    params.update(overrides)
    return YCSBConfig(**params)


def test_breakdown_is_positive_and_names_a_bottleneck():
    model = AnalyticalModel(paper_config(), paper_workload())
    breakdown = model.breakdown()
    assert breakdown.primary_cpu_seconds > 0
    assert breakdown.replica_cpu_seconds > 0
    assert breakdown.verifier_cpu_seconds > 0
    assert breakdown.executor_seconds > 0
    assert breakdown.base_latency_seconds > 0.02
    assert breakdown.max_batches_per_second > 0
    assert breakdown.bottleneck in (
        "primary-cpu", "replica-cpu", "verifier-cpu", "executor-pool", "primary-nic",
    )


def test_throughput_saturates_with_clients():
    model = AnalyticalModel(paper_config(), paper_workload())
    low, low_latency = model.throughput_latency(1_000)
    mid, _ = model.throughput_latency(20_000)
    high, high_latency = model.throughput_latency(80_000)
    assert low < mid <= high * 1.001
    assert high_latency > low_latency
    with pytest.raises(ConfigurationError):
        model.throughput_latency(0)


def test_more_shim_nodes_reduce_throughput():
    small = AnalyticalModel(paper_config(shim_nodes=8), paper_workload())
    large = AnalyticalModel(paper_config(shim_nodes=32), paper_workload())
    assert small.throughput_latency()[0] > large.throughput_latency()[0]


def test_more_cores_increase_throughput():
    few = AnalyticalModel(paper_config(shim_cores=2), paper_workload())
    many = AnalyticalModel(paper_config(shim_cores=16), paper_workload())
    assert many.throughput_latency()[0] > few.throughput_latency()[0]


def test_more_executors_reduce_throughput():
    few = AnalyticalModel(paper_config(num_executors=3), paper_workload())
    many = AnalyticalModel(paper_config(num_executors=21, num_executor_regions=7), paper_workload())
    assert few.throughput_latency()[0] > many.throughput_latency()[0]


def test_execution_time_dominates_latency():
    heavy = AnalyticalModel(paper_config(), paper_workload(execution_seconds=8.0))
    _tput, latency = heavy.throughput_latency()
    assert latency >= 8.0


def test_system_ordering_matches_figure7():
    throughputs = {}
    for system in SystemKind:
        config = paper_config(shim_nodes=32)
        if system in (SystemKind.SERVERLESS_CFT, SystemKind.NOSHIM):
            config = config.with_overrides(txn_ingest_cost=15e-6)
        model = AnalyticalModel(config, paper_workload(), system=system)
        throughputs[system] = model.throughput_latency()[0]
    assert throughputs[SystemKind.SERVERLESS_BFT] < throughputs[SystemKind.PBFT_REPLICATED]
    assert throughputs[SystemKind.PBFT_REPLICATED] < throughputs[SystemKind.SERVERLESS_CFT]
    assert throughputs[SystemKind.SERVERLESS_CFT] < throughputs[SystemKind.NOSHIM]


def test_conflicts_reduce_goodput_but_avoidance_recovers_it():
    optimistic = AnalyticalModel(
        paper_config(conflict_mode=ConflictMode.OPTIMISTIC),
        paper_workload(conflict_fraction=0.5, rw_sets_known=False),
    )
    avoidance = AnalyticalModel(
        paper_config(conflict_mode=ConflictMode.CONFLICT_AVOIDANCE),
        paper_workload(conflict_fraction=0.5),
    )
    clean = AnalyticalModel(paper_config(), paper_workload())
    assert optimistic.throughput_latency()[0] < clean.throughput_latency()[0]
    assert avoidance.throughput_latency()[0] > optimistic.throughput_latency()[0]


def test_offloading_cost_model():
    heavy = paper_workload(execution_seconds=1.0)
    serverless = AnalyticalModel(paper_config(shim_nodes=32), heavy)
    edge_1_thread = AnalyticalModel(
        paper_config(shim_nodes=32), heavy, system=SystemKind.PBFT_REPLICATED, execution_threads=1
    )
    assert serverless.cost_cents_per_kilo_txn() < edge_1_thread.cost_cents_per_kilo_txn()
    assert serverless.cost_cents_per_kilo_txn() > 0


def test_region_spread_leaves_throughput_roughly_constant():
    narrow = AnalyticalModel(
        paper_config(num_executors=11, num_executor_regions=5), paper_workload()
    )
    wide = AnalyticalModel(
        paper_config(num_executors=11, num_executor_regions=11), paper_workload()
    )
    narrow_tput = narrow.throughput_latency()[0]
    wide_tput = wide.throughput_latency()[0]
    assert abs(narrow_tput - wide_tput) <= 0.1 * narrow_tput


def test_sweep_clients_produces_rows():
    model = AnalyticalModel(paper_config(), paper_workload())
    rows = model.sweep_clients([1_000, 10_000])
    assert len(rows) == 2
    assert set(rows[0]) == {"clients", "throughput", "latency"}


def test_calibration_simulator_and_model_agree_within_25_percent():
    config = make_config(num_clients=200, client_groups=8, batch_size=25)
    workload = make_workload(clients=200, num_records=20_000)
    calibration = calibration_ratio(config, workload, duration=2.0, warmup=0.4)
    assert calibration.simulated_throughput > 0
    assert calibration.modelled_throughput > 0
    # The model is an oracle for the simulator: on this configuration the
    # ratios measure 1.10-1.11 (throughput) and 0.905 (latency) over seeds
    # 1, 7, 42, 99 and 2023.  The model ignores queueing jitter and batching
    # delay, so a quarter either way is the band.
    assert 0.8 <= calibration.throughput_ratio <= 1.25
    assert 0.8 <= calibration.latency_ratio <= 1.25
