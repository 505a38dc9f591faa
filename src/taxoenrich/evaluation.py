"""Connected-component MAP and per-group score breakdowns.

The gold set of each word is partitioned into components connected by direct
hypernym links; one hit per component counts, a second hit in an already-hit
component is a miss. AP normalizes by the component count, so MAP rewards
finding any hypernym from each sense region exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diachronic import OrphanEntry, is_named_entity
from .taxonomy import Taxonomy


@dataclass
class WordResult:
    word: str
    gold_components: tuple[frozenset[str], ...]  # ``Taxonomy.connected_components``
    ap: float


def average_precision(predictions: list[str], gold: tuple[frozenset[str], ...],
                      limit: int = 10) -> float:
    """AP over connected components, scanning at most ``limit`` predictions.

    Prediction i is a hit iff it belongs to a component not hit before;
    AP = (1/M) * sum over hits of (hits among first i)/i, M = #components.
    """
    if len(gold) == 0:
        raise ValueError("gold components must be non-empty")
    membership: dict[str, int] = {}
    for comp_idx, comp in enumerate(gold):
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
    """Mean of per-entry average precision, the sum taken left to right from 0 (the
    built-in ``sum`` compensates from Python 3.12 on, so it could differ by interpreter)."""
    if not results:
        raise ValueError("map_score of empty result list")
    total = 0.0
    for r in results:
        total += r.ap
    return total / len(results)


def classify_word(word: str) -> str:
    """``"short"`` (< 4 letters), ``"named_entity"`` (a capitalized token) or ``"other"``.

    Short takes precedence when a word is both short and capitalized.
    """
    letters = sum(1 for c in word if c.isalpha())
    if letters < 4:
        return "short"
    if is_named_entity(word):
        return "named_entity"
    return "other"


def group_breakdown(results: list[WordResult]) -> dict:
    """MAP and dataset share per word group (``classify_word``); empty groups are absent."""
    grouped: dict[str, list[WordResult]] = {}
    for r in results:
        grouped.setdefault(classify_word(r.word), []).append(r)
    # a group exists only with members, so ``results`` is not empty in the share
    return {label: {"map": map_score(members), "count": len(members),
                    "share_pct": 100.0 * len(members) / len(results)}
            for label, members in grouped.items()}


def sense_distribution(results: list[WordResult]) -> dict:
    """Histogram of words over their number of gold connected components, with the
    words of AP > 0 counted per bucket; bucket totals sum to the number of results."""
    histogram: dict[int, dict] = {}
    for r in results:
        bucket = histogram.setdefault(len(r.gold_components), {"words": 0, "predicted": 0})
        bucket["words"] += 1
        bucket["predicted"] += r.ap > 0.0
    return dict(sorted(histogram.items()))


def evaluate_predictions(dataset: list[OrphanEntry], taxonomy: Taxonomy,
                         predictions: dict, limit: int = 10) -> list[WordResult]:
    """Per-entry AP over a whole dataset. An entry's ranked synset ids are found in
    ``predictions`` under (word, pos), else under its word; an entry found under neither
    scores 0. Predicted ids unknown to the taxonomy are ordinary misses."""
    results = []
    for entry in dataset:
        components = taxonomy.connected_components(set(entry.gold))
        preds = predictions.get((entry.word, entry.pos), predictions.get(entry.word, []))
        results.append(WordResult(word=entry.word, gold_components=components,
                                  ap=average_precision(preds, components, limit=limit)))
    return results
