"""Measurement, Table 1 regeneration, figure sweeps, and chaos testing."""
from repro.analysis.chaos import (
    CHAOS_SPECS,
    ChaosSpec,
    random_fault_plan,
    run_chaos,
    run_chaos_plan,
    shrink_failing_plan,
    shrink_plan,
    sweep_chaos,
)
from repro.analysis.engine import SweepEngine, SweepTask, point_seed
from repro.analysis.latency import (
    LatencyMeasurement,
    measure_round_good_case,
    measure_sync_good_case,
)
from repro.analysis.sweeps import (
    SweepPoint,
    latency_percentiles,
    sweep_dishonest_majority,
    sweep_fig9_tradeoff,
    sweep_latency_distribution,
    sweep_random_delays,
    sweep_sync_regimes,
)
from repro.analysis.table1 import Table1Row, format_table, generate_table1

__all__ = [
    "CHAOS_SPECS",
    "ChaosSpec",
    "LatencyMeasurement",
    "SweepEngine",
    "SweepPoint",
    "SweepTask",
    "Table1Row",
    "format_table",
    "generate_table1",
    "latency_percentiles",
    "measure_round_good_case",
    "measure_sync_good_case",
    "point_seed",
    "random_fault_plan",
    "run_chaos",
    "run_chaos_plan",
    "shrink_failing_plan",
    "shrink_plan",
    "sweep_chaos",
    "sweep_dishonest_majority",
    "sweep_fig9_tradeoff",
    "sweep_latency_distribution",
    "sweep_random_delays",
    "sweep_sync_regimes",
]
