"""Open-benchmark preparation and uniform prediction scoring."""
from biokgr.bench.prepare import (
    EXPECTED_SNAPSHOT_COUNTS,
    MissingField,
    UnknownBenchmark,
    prepare_dataset,
)
from biokgr.bench.scoring import (
    MalformedPrediction,
    SuiteReport,
    UnmatchedItemId,
    load_predictions,
    read_items,
    run_suite,
    score_item,
)

__all__ = [
    "EXPECTED_SNAPSHOT_COUNTS",
    "MissingField",
    "UnknownBenchmark",
    "prepare_dataset",
    "MalformedPrediction",
    "SuiteReport",
    "UnmatchedItemId",
    "load_predictions",
    "read_items",
    "run_suite",
    "score_item",
]
