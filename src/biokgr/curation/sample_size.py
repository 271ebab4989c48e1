"""Sample-size estimation MCQs.

The ground-truth participant count becomes one of five options; the four
distractors are multiplicative perturbations of the truth with ratios drawn
log-uniformly from [0.25, 4.00], rounded, validity-checked, and deduplicated.
"""
from __future__ import annotations

import math
import random

from biokgr.curation.items import (InsufficientCandidates, InsufficientEvidence, McqItem,
                                   finalize_item)

RATIO_MIN = 0.25
RATIO_MAX = 4.00
VALIDITY_BAND = (10, 100_000)
DISTRACTOR_COUNT = 4
_MAX_DRAWS = 10_000


def distractor_is_valid(truth: int, candidate: int) -> bool:
    """Candidate must sit inside the rounded ratio band and the validity band."""
    lo = max(round(truth * RATIO_MIN), VALIDITY_BAND[0])
    hi = min(round(truth * RATIO_MAX), VALIDITY_BAND[1])
    return lo <= candidate <= hi and candidate != truth


def gen_sample_size_item(
    truth: int,
    seed: int = 0,
    ratios: list[float] | None = None,
    item_id: str | None = None,
    condition: str = "",
    arms: list[str] | None = None,
    primary_outcome: str = "",
    assumption: str = "",
) -> McqItem:
    """Build one five-option sample-size item around `truth`.

    `ratios` optionally pins the four perturbation ratios (regression
    fixtures); otherwise they are drawn log-uniformly from the ratio range
    with resampling on collisions or validity failures.
    """
    if not isinstance(truth, int) or isinstance(truth, bool):
        raise InsufficientEvidence(f"truth must be an integer, got {truth!r}")
    if not VALIDITY_BAND[0] <= truth <= VALIDITY_BAND[1]:
        raise InsufficientEvidence(f"truth {truth} outside validity band {VALIDITY_BAND}")

    rng = random.Random(seed)
    distractors: list[int] = []
    if ratios is not None:
        for ratio in ratios:
            candidate = round(truth * ratio)
            if not distractor_is_valid(truth, candidate) or candidate in distractors:
                raise InsufficientCandidates(
                    f"pinned ratio {ratio} yields invalid/duplicate distractor {candidate}"
                )
            distractors.append(candidate)
        if len(distractors) != DISTRACTOR_COUNT:
            raise InsufficientCandidates(
                f"{len(distractors)} pinned ratios given, need {DISTRACTOR_COUNT}"
            )
    else:
        draws = 0
        while len(distractors) < DISTRACTOR_COUNT:
            draws += 1
            if draws > _MAX_DRAWS:
                raise InsufficientCandidates(
                    f"could not place {DISTRACTOR_COUNT} distinct distractors for {truth}"
                )
            ratio = math.exp(rng.uniform(math.log(RATIO_MIN), math.log(RATIO_MAX)))
            candidate = round(truth * ratio)
            if distractor_is_valid(truth, candidate) and candidate not in distractors:
                distractors.append(candidate)

    scored = [(str(d), 0) for d in distractors] + [(str(truth), 2)]

    parts = []
    if condition:
        parts.append(f"Condition: {condition}.")
    if arms:
        parts.append("Study arms: " + "; ".join(arms) + ".")
    if primary_outcome:
        parts.append(f"Primary outcome: {primary_outcome}.")
    stem = " ".join(parts)
    assumption_text = assumption or (
        "a two-sided significance level of 5% and power of 80%"
    )
    question = (
        (stem + " " if stem else "")
        + f"Please estimate the required sample size based on the assumption of "
        + f"{assumption_text}."
    )
    return finalize_item(
        item_id=item_id or f"sample-size-{truth}-{seed}",
        task_type="sample_size",
        question=question,
        scored_options=scored,
        rng=rng,
        metadata={"truth": truth, "seed": seed},
    )
