"""Memory stays bounded: many research runs and merge batches in one process hold no
more after the last of them than after the tenth."""
import gc
import logging
import shutil
import tracemalloc

from biokgr.agents import DefaultOracle, OrchestratorRunner
from biokgr.evidence import BatchLimitExceeded, EmptyLabel, EvidenceGraphStore

from fedmock import make_mock_federation
from test_agents import QUERY
from test_evidence_graph import pinned_merge_stream

# What the traced size may grow by from the tenth research run to the end of the soak.
# The interpreter's free lists and caches account for a few kilobytes; one leaked
# workspace per run, or one leaked store, is far more.
SOAK_MARGIN_BYTES = 32 * 1024


def traced_size() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def merge_pass(batches) -> None:
    """`batches` into a fresh store, which is dropped: a store grows by design."""
    store = EvidenceGraphStore()
    for batch in batches:
        try:
            store.upsert_batch(batch)
        except (BatchLimitExceeded, EmptyLabel):
            pass


def test_a_hundred_research_runs_and_two_thousand_merge_batches_hold_no_more_memory(tmp_path):
    logging.disable(logging.WARNING)  # pytest keeps each record it captures: harness growth
    tracemalloc.start()
    try:
        for run in range(100):
            root = tmp_path / f"run-{run}"
            OrchestratorRunner(make_mock_federation(), DefaultOracle()).run(QUERY, root)
            shutil.rmtree(root)
            if run == 9:
                after_tenth = traced_size()
        batches = list(pinned_merge_stream(seed=14, batches=200))
        for _ in range(10):
            merge_pass(batches)
        del batches
        after_last = traced_size()
    finally:
        tracemalloc.stop()
        logging.disable(logging.NOTSET)
    assert after_last - after_tenth <= SOAK_MARGIN_BYTES, after_last - after_tenth
