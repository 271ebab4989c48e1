"""Deep research over heterogeneous biomedical knowledge graphs.

Subpackages:
  evidence    deduplicated evidence-graph memory with provenance
  federation  rate-limited clients and unified search over KG services
  pathways    KGML/flat-record parsing and graph analytics
  curation    benchmark task generators (targets, flux, trials, EBM gaps)
  agents      orchestrator and budgeted breadth/depth research agents
  bench       open-benchmark preparation and scoring
"""

import json
from functools import cache
from importlib import resources

__version__ = "0.1.0"


@cache
def load_data(name: str):
    """A bundled file under `biokgr/data/`, read once per process.

    JSON files come back parsed, any other file as text. Every caller shares
    the returned object, so callers must not mutate it.
    """
    text = resources.files("biokgr.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text) if name.endswith(".json") else text


def jsonl_lines(rows):
    """Each row as one line of JSON with sorted keys, its newline included."""
    return (json.dumps(row, sort_keys=True) + "\n" for row in rows)


def read_jsonl(path) -> list:
    """The rows of a JSON-lines file; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
