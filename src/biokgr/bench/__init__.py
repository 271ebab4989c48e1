"""Open-benchmark preparation and uniform prediction scoring."""
from biokgr.bench.prepare import (
    EXPECTED_SNAPSHOT_COUNTS,
    BenchItem,
    MissingField,
    UnknownBenchmark,
    prepare_dataset,
    read_bench_items,
    write_bench_items,
)
from biokgr.bench.scoring import (
    MalformedPrediction,
    SuiteReport,
    UnmatchedItemId,
    load_predictions,
    run_suite,
    score_item,
)

__all__ = [
    "EXPECTED_SNAPSHOT_COUNTS",
    "BenchItem",
    "MissingField",
    "UnknownBenchmark",
    "prepare_dataset",
    "read_bench_items",
    "write_bench_items",
    "MalformedPrediction",
    "SuiteReport",
    "UnmatchedItemId",
    "load_predictions",
    "run_suite",
    "score_item",
]
