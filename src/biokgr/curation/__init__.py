"""Benchmark task curators.

Each curator turns structured inputs (parsed pathways, trial corpora, drug
records, review versions) into graded multiple-choice or gap-detection tasks
with deterministic, seed-reproducible output. All of them write the item rows
of `curation.items`, which `bench score` reads.
"""
from biokgr.curation.items import McqItem, McqOption, ItemInvariantError

__all__ = ["McqItem", "McqOption", "ItemInvariantError"]
