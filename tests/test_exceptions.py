"""One exception class per failure mode across the whole package, each a `biokgr.Error`
unless it marks a broken invariant."""
import importlib
import inspect
import pkgutil

import biokgr
import biokgr.agents
import biokgr.curation.flux
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
    assert biokgr.curation.flux.NoCorrectOption is biokgr.curation.target_id.NoCorrectOption


# the program's own invariants, which no outside input can break
INVARIANT_ERRORS = {"ItemInvariantError", "NodeNotFound"}


def test_every_other_exception_class_is_a_documented_failure():
    assert issubclass(biokgr.WorkspaceUnavailable, biokgr.Error)
    plain = {cls.__name__ for cls in biokgr_exception_classes()
             if not issubclass(cls, biokgr.Error)}
    assert plain == INVARIANT_ERRORS
