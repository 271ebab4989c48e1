"""One exception class per failure mode across the whole package, each a `biokgr.Error`
unless it marks a broken invariant."""
import importlib
import inspect
import pkgutil

import biokgr
import biokgr.agents
import biokgr.bench
import biokgr.curation.flux
import biokgr.curation.items
import biokgr.curation.target_id
import biokgr.evidence
import biokgr.federation


def biokgr_exception_classes():
    classes = set()
    for info in pkgutil.walk_packages(biokgr.__path__, prefix="biokgr."):
        module = importlib.import_module(info.name)
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__.startswith("biokgr."):
                classes.add(obj)
    return classes


def test_no_two_exception_classes_share_a_name():
    by_name = {}
    for cls in biokgr_exception_classes():
        by_name.setdefault(cls.__name__, set()).add(f"{cls.__module__}.{cls.__qualname__}")
    duplicates = {name: sorted(owners) for name, owners in by_name.items() if len(owners) > 1}
    assert duplicates == {}


def test_merged_names_resolve_to_one_class():
    assert (biokgr.evidence.WorkspaceUnavailable
            is biokgr.federation.persist.WorkspaceUnavailable
            is biokgr.agents.workspace.WorkspaceUnavailable
            is biokgr.WorkspaceUnavailable)
    items = biokgr.curation.items
    # the curator names the curate-kgml benchmark catches
    assert biokgr.curation.target_id.InsufficientCandidates is items.InsufficientCandidates
    assert (biokgr.curation.target_id.NoCorrectOption
            is biokgr.curation.flux.NoCorrectOption
            is items.NoCorrectOption)
    assert biokgr.curation.flux.TargetNotInPathway is items.TargetNotInPathway
    assert biokgr.bench.scoring.MissingField is biokgr.bench.MissingField


def test_curators_and_bench_define_one_class_per_refusal():
    defined = {cls.__name__: cls.__module__ for cls in biokgr_exception_classes()
               if cls.__module__.startswith(("biokgr.curation.", "biokgr.bench."))}
    assert defined == {
        "ItemInvariantError": "biokgr.curation.items",
        "InsufficientCandidates": "biokgr.curation.items",
        "NoCorrectOption": "biokgr.curation.items",
        "TargetNotInPathway": "biokgr.curation.items",
        "InsufficientEvidence": "biokgr.curation.items",
        "MalformedDocument": "biokgr.curation.ebm",
        "DegenerateTruth": "biokgr.curation.ebm",
        "MissingField": "biokgr.bench.prepare",
        "UnknownBenchmark": "biokgr.bench.prepare",
        "UnmatchedItemId": "biokgr.bench.scoring",
    }


def test_the_evidence_store_defines_one_class_per_refusal():
    defined = {cls.__name__ for cls in biokgr_exception_classes()
               if cls.__module__ == "biokgr.evidence"}
    assert defined == {
        "EvidenceGraphError",
        "EmptyLabel",
        "InvalidName",
        "InvalidObservation",
        "MissingEvidence",
        "UnknownPredicate",
        "BatchLimitExceeded",
        "MalformedSnapshot",
    }


# the program's own invariants, which no outside input can break
INVARIANT_ERRORS = {"ItemInvariantError", "NodeNotFound"}


def test_every_other_exception_class_is_a_documented_failure():
    assert issubclass(biokgr.WorkspaceUnavailable, biokgr.Error)
    plain = {cls.__name__ for cls in biokgr_exception_classes()
             if not issubclass(cls, biokgr.Error)}
    assert plain == INVARIANT_ERRORS
