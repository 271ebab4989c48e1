"""EBM gap curator: reference parsing, version pairing, prediction scoring."""
import pytest

from biokgr.curation.ebm import (
    DegenerateTruth,
    MalformedDocument,
    pair_versions,
    parse_included_refs,
    parse_review_version,
    score_predictions,
    split_base_doi,
)

from corpusgen import make_review_xml

BASE = "10.1002/14651858.CD000259"


def audit_feedback_pair():
    older = make_review_xml(
        doi=f"{BASE}.pub3",
        pmid=22696318,
        title="Audit and feedback: effects on professional practice",
        objectives=(
            "To assess the effects of audit and feedback on the practice of "
            "healthcare professionals."
        ),
        criteria=(
            "Randomised trials featuring audit and feedback with objectively "
            "measured health professional practice outcomes."
        ),
        outcomes="Median adjusted risk difference across comparisons.",
        included=[8129501, 16389536, 15592551, 10166596],
        excluded=[14695072],
    )
    newer = make_review_xml(
        doi=f"{BASE}.pub4",
        pmid=99999991,
        title="Audit and feedback: effects on professional practice",
        objectives=(
            "To assess the effects of audit and feedback on the practice of "
            "healthcare professionals and to examine factors explaining variation."
        ),
        criteria=(
            "Randomised trials including cluster trials featuring audit and "
            "feedback with objectively measured practice outcomes."
        ),
        outcomes="Updated pooled estimates.",
        included=[8129501, 16389536, 15592551, 10166596, 30994898, 20379742, 31209158],
        excluded=[14695072],
    )
    return older, newer


# -- parsing -------------------------------------------------------------------

def test_parse_included_refs_counts():
    older, _ = audit_feedback_pair()
    included, excluded, warnings = parse_included_refs(older)
    assert included == frozenset({8129501, 16389536, 15592551, 10166596})
    assert excluded == frozenset({14695072})
    assert warnings == 0


def test_excluded_never_in_included():
    doc = make_review_xml(
        doi=f"{BASE}.pub2", pmid=1, title="t", objectives="o", criteria="c",
        outcomes="r", included=[10, 11], excluded=[11, 12],
    )
    included, excluded, _ = parse_included_refs(doc)
    assert included & excluded == frozenset()
    assert 11 in included  # included wins over a conflicting excluded listing


def test_missing_included_section_is_empty_with_warning(caplog):
    doc = "<PubmedArticle><MedlineCitation><PMID>5</PMID></MedlineCitation></PubmedArticle>"
    with caplog.at_level("WARNING"):
        included, excluded, _ = parse_included_refs(doc)
    assert included == frozenset() and excluded == frozenset()
    assert any("no included-studies" in r.message for r in caplog.records)


def test_malformed_pmids_skipped_and_counted():
    doc = """<PubmedArticle><PubmedData>
      <ReferenceList><Title>References to studies included in this review</Title>
        <Reference><ArticleIdList><ArticleId IdType="pubmed">123</ArticleId></ArticleIdList></Reference>
        <Reference><ArticleIdList><ArticleId IdType="pubmed">not-a-pmid</ArticleId></ArticleIdList></Reference>
      </ReferenceList>
    </PubmedData></PubmedArticle>"""
    included, _, warnings = parse_included_refs(doc)
    assert included == frozenset({123})
    assert warnings == 1


def test_parse_is_idempotent():
    older, _ = audit_feedback_pair()
    assert parse_included_refs(older) == parse_included_refs(older)


def test_malformed_document_raises():
    with pytest.raises(MalformedDocument):
        parse_included_refs("<PubmedArticle><broken>")


def test_parse_review_version_fields():
    older, _ = audit_feedback_pair()
    version = parse_review_version(older)
    assert version.base_doi == BASE
    assert version.version == 3
    assert version.pmid == 22696318
    assert "audit and feedback" in version.objectives.casefold()
    assert "randomised trials" in version.selection_criteria.casefold()


def test_split_base_doi():
    assert split_base_doi(f"{BASE}.pub3") == (BASE, 3)
    assert split_base_doi(BASE) == (BASE, 1)


# -- pairing --------------------------------------------------------------------

def test_pairing_computes_set_difference():
    older, newer = audit_feedback_pair()
    tasks, unpaired = pair_versions([parse_review_version(older), parse_review_version(newer)])
    assert unpaired == []
    assert len(tasks) == 1
    task = tasks[0]
    assert task.truth == frozenset({30994898, 20379742, 31209158})
    assert set(task.to_dict()["metadata"]["prior_included"]) == {8129501, 16389536, 15592551, 10166596}
    assert "audit and feedback" in task.to_dict()["metadata"]["objectives"].casefold()


def test_pair_dropped_when_no_new_studies():
    v1 = parse_review_version(
        make_review_xml(f"{BASE}.pub1", 1, "t", "o", "c", "r", included=[1, 2, 3])
    )
    v2 = parse_review_version(
        make_review_xml(f"{BASE}.pub2", 2, "t", "o", "c", "r", included=[1, 2])
    )
    tasks, _ = pair_versions([v1, v2])
    assert tasks == []


def test_singleton_version_reported_unpaired():
    only = parse_review_version(
        make_review_xml(f"{BASE}.pub1", 1, "t", "o", "c", "r", included=[1])
    )
    tasks, unpaired = pair_versions([only])
    assert tasks == [] and unpaired == [BASE]


def test_truth_never_intersects_prior():
    older, newer = audit_feedback_pair()
    tasks, _ = pair_versions([parse_review_version(older), parse_review_version(newer)])
    assert not tasks[0].truth & tasks[0].older.included


def test_three_versions_pair_consecutively():
    versions = [
        parse_review_version(make_review_xml(f"{BASE}.pub{i}", i, "t", "o", "c", "r",
                                             included=list(range(1, i + 2))))
        for i in (1, 2, 3)
    ]
    tasks, _ = pair_versions(versions)
    assert [(t.older.version, t.newer.version) for t in tasks] == [(1, 2), (2, 3)]
    assert [sorted(t.truth) for t in tasks] == [[3], [4]]


# -- scoring --------------------------------------------------------------------

def test_scoring_hand_computed():
    truth = frozenset(range(100, 110))  # 10 PMIDs
    ranked = [100, 101, 102, 103] + list(range(500, 526))  # 4 hits in top 30
    result = score_predictions(ranked, truth, k=30)
    assert result["gap_detected"] is True
    assert result["recall_at_k"] == pytest.approx(0.4)


def test_scoring_miss():
    result = score_predictions(list(range(500, 530)), frozenset({1, 2}), k=30)
    assert result["gap_detected"] is False
    assert result["recall_at_k"] == 0.0


def test_short_ranking_scored_as_is():
    result = score_predictions([1], frozenset({1, 2}), k=30)
    assert result["recall_at_k"] == pytest.approx(0.5)


def test_degenerate_truth():
    with pytest.raises(DegenerateTruth):
        score_predictions([1, 2], frozenset())


def test_recall_monotone_in_k():
    truth = frozenset({2, 9, 17, 40})
    ranked = list(range(50))
    previous = 0.0
    for k in range(1, 51):
        recall = score_predictions(ranked, truth, k=k)["recall_at_k"]
        assert recall >= previous
        result = score_predictions(ranked, truth, k=k)
        assert result["gap_detected"] == (recall > 0)
        previous = recall
