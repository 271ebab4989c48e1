"""Deep research over heterogeneous biomedical knowledge graphs.

Subpackages:
  evidence    deduplicated evidence-graph memory with provenance
  federation  rate-limited clients and unified search over KG services
  pathways    KGML/flat-record parsing and graph analytics
  curation    benchmark task generators (targets, flux, trials, EBM gaps)
  agents      orchestrator and budgeted breadth/depth research agents
  bench       open-benchmark preparation and scoring

Outside JSON (oracle replies, snapshots, manifests, analysis specs, benchmark
files) is read through `field`, which raises `ValueError` naming the field;
each boundary turns that into its own exception.
"""

import json
from functools import cache
from importlib import resources

__version__ = "0.1.0"

_REQUIRED = object()


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


def read_jsonl(path, read=None) -> list:
    """The rows of a JSON-lines file, blank lines skipped, each passed through `read` if given.

    A line that is not JSON, or a `ValueError` from `read`, raises `ValueError`
    naming the file and the row (its line number).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                rows.append(row if read is None else read(row))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} row {number} is not JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path} row {number} {exc}") from exc
    return rows


def field(record, name: str, types, default=_REQUIRED, of=None):
    """`record[name]`, checked to be one of `types` (a list of type `of`, when given).

    Returns `default` when the field is absent. Raises `ValueError` naming the
    field when `record` is not a JSON object, a field without a default is
    absent, or the value has the wrong type; a bool is never taken for an int.
    """
    if not isinstance(record, dict):
        raise ValueError(f"lacks {name!r}: {record!r:.80} is not an object")
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"lacks {name!r}")
        return default
    value = record[name]
    if _is(value, types) and (of is None or all(_is(item, of) for item in value)):
        return value
    names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
    listed = "" if of is None else f" of {of.__name__}"
    raise ValueError(f"field {name!r} is not {names}{listed}: {value!r:.80}")


def _is(value, types) -> bool:
    if type(value) is bool:  # an int subclass, but never taken for an int
        return types is bool or (isinstance(types, tuple) and bool in types)
    return isinstance(value, types)
