"""Connected-component MAP and per-group score breakdowns.

The gold set of each word is partitioned into components connected by direct
hypernym links; one hit per component counts, a second hit in an already-hit
component is a miss. AP normalizes by the component count, so MAP rewards
finding any hypernym from each sense region exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .diachronic import OrphanEntry, is_named_entity
from .taxonomy import GoldComponents, Taxonomy


class GroupLabel(str, Enum):
    NAMED_ENTITY = "named_entity"
    SHORT = "short"
    OTHER = "other"


@dataclass
class WordResult:
    word: str
    predictions: list[str]     # ranked synset ids, deduplicated
    gold_components: GoldComponents
    ap: float


def average_precision(predictions: list[str], gold: GoldComponents,
                      limit: int = 10) -> float:
    """AP over connected components, scanning at most ``limit`` predictions.

    Prediction i is a hit iff it belongs to a component not hit before;
    AP = (1/M) * sum over hits of (hits among first i)/i, M = #components.
    """
    if len(gold) == 0:
        raise ValueError("gold components must be non-empty")
    membership: dict[str, int] = {}
    for comp_idx, comp in enumerate(gold.components):
        for sid in comp:
            membership[sid] = comp_idx
    hit_components: set[int] = set()
    hits = 0
    total = 0.0
    seen: set[str] = set()
    rank = 0
    for sid in predictions:
        if sid in seen:
            continue
        seen.add(sid)
        rank += 1
        if rank > limit:
            break
        comp_idx = membership.get(sid)
        if comp_idx is not None and comp_idx not in hit_components:
            hit_components.add(comp_idx)
            hits += 1
            total += hits / rank
    return total / len(gold)


def map_score(results: list[WordResult]) -> float:
    """Mean of per-word average precision."""
    if not results:
        raise ValueError("map_score of empty result list")
    return sum(r.ap for r in results) / len(results)


def classify_word(word: str) -> GroupLabel:
    """Short (< 4 letters), named entity (capitalized token), or other.

    Short takes precedence when a word is both short and capitalized.
    """
    letters = sum(1 for c in word if c.isalpha())
    if letters < 4:
        return GroupLabel.SHORT
    if is_named_entity(word):
        return GroupLabel.NAMED_ENTITY
    return GroupLabel.OTHER


def group_breakdown(results: list[WordResult]) -> dict:
    """MAP and dataset share per word group (``classify_word``); empty groups are absent."""
    grouped: dict[GroupLabel, list[WordResult]] = {}
    for r in results:
        grouped.setdefault(classify_word(r.word), []).append(r)
    # a group exists only with members, so ``results`` is not empty in the share
    return {label.value: {"map": map_score(members), "count": len(members),
                          "share_pct": 100.0 * len(members) / len(results)}
            for label, members in grouped.items()}


def sense_distribution(dataset: list[OrphanEntry], taxonomy: Taxonomy,
                       results: list[WordResult] | None = None) -> dict:
    """Histogram of words over their number of gold connected components.

    With results supplied, also counts words with AP > 0 per bucket.
    Bucket totals sum to the dataset size.
    """
    ap_by_word = {r.word: r.ap for r in results} if results else {}
    histogram: dict[int, dict] = {}
    for entry in dataset:
        n = len(taxonomy.connected_components(set(entry.gold)))
        bucket = histogram.setdefault(n, {"words": 0, "predicted": 0})
        bucket["words"] += 1
        if ap_by_word.get(entry.word, 0.0) > 0.0:
            bucket["predicted"] += 1
    return dict(sorted(histogram.items()))


def evaluate_predictions(dataset: list[OrphanEntry], taxonomy: Taxonomy,
                         predictions: dict[str, list[str]],
                         limit: int = 10) -> list[WordResult]:
    """Per-word AP over a whole dataset; words absent from ``predictions``
    score 0. Predicted ids unknown to the taxonomy are ordinary misses."""
    results = []
    for entry in dataset:
        components = taxonomy.connected_components(set(entry.gold))
        preds = list(dict.fromkeys(predictions.get(entry.word, [])))
        ap = average_precision(preds, components, limit=limit)
        results.append(WordResult(word=entry.word, predictions=preds,
                                  gold_components=components, ap=ap))
    return results
