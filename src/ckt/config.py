"""Stopwords, token normalization, the ontology and the scorer weights.

The ontology and the weights can be replaced by files named in the project
manifest; the shipped values keep a bare build usable without any config.
The stopwords are fixed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from ckt.errors import ConfigError, FormatError
from ckt.model import Record
from ckt.textio import as_text, as_texts, json_records, utf8_lines

# 30-word English stopword list applied during comment/query normalization.
DEFAULT_STOPWORDS = frozenset(
    [
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
        "has", "have", "in", "is", "it", "its", "of", "on", "or", "so",
        "that", "the", "this", "to", "was", "were", "what", "which", "will", "with",
    ]
)

_WORD_KEEP = re.compile(r"[a-z0-9_#-]+")
_CAMEL_SPLIT = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def normalize_tokens(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase, strip surrounding punctuation, drop stopwords and empties.

    Interior '#', '_', '-' and digits survive so tokens like bug#22,
    162_s1 or 12-03-2013 stay addressable.
    """
    out: list[str] = []
    for word in text.lower().split():
        for piece in _WORD_KEEP.findall(word):
            piece = piece.strip("-")
            if piece and piece not in stopwords:
                out.append(piece)
    return out


def split_identifier(name: str) -> list[str]:
    """Split snake_case/camelCase identifiers into lowercase word tokens."""
    parts: list[str] = []
    for chunk in name.replace("#", "_").split("_"):
        parts.extend(m.lower() for m in _CAMEL_SPLIT.findall(chunk))
    return [p for p in parts if p]


class Ontology:
    """Term/synonym table mapping surface phrases to concept ids.

    Each phrase is stored as its normalized token tuple; matching is
    contiguous-subsequence against comment or identifier token streams.
    `add` also files each phrase under its first token, so `hits` looks at
    each position of a token stream only for the phrases that start there.
    """

    def __init__(self) -> None:
        self.phrases: dict[tuple[str, ...], str] = {}
        self.concept_labels: dict[str, str] = {}
        self._starting: dict[str, list[tuple[str, ...]]] = {}

    def add(self, term: str, synonyms: list[str], concept: str) -> None:
        self.concept_labels.setdefault(concept, term)
        for phrase in [term, *synonyms]:
            toks = tuple(normalize_tokens(phrase, frozenset()))
            if toks:
                if toks not in self.phrases:
                    self._starting.setdefault(toks[0], []).append(toks)
                self.phrases[toks] = concept  # a re-added phrase takes the new concept

    def concepts(self) -> list[str]:
        return sorted(self.concept_labels)

    def hits(self, tokens: list[str]) -> dict[str, int]:
        """Count phrase occurrences per concept in a token sequence;
        overlapping occurrences each count."""
        counts: dict[str, int] = {}
        for i, token in enumerate(tokens):
            for phrase in self._starting.get(token, ()):
                n = len(phrase)
                if n == 1 or tuple(tokens[i : i + n]) == phrase:
                    concept = self.phrases[phrase]
                    counts[concept] = counts.get(concept, 0) + 1
        return counts


def default_ontology() -> Ontology:
    ont = Ontology()
    ont.add("greedy", ["locally optimal", "greedy choice"], "greedy")
    ont.add("divide and conquer", ["divide", "conquer", "halve", "split the range"], "divide-and-conquer")
    ont.add("dynamic programming", ["memoization", "memoize", "tabulation"], "dynamic-programming")
    return ont


def load_ontology(path: str) -> Ontology:
    """Read line-delimited {"term","synonyms","concept"} records."""
    ont = Ontology()
    name = Path(path).name
    for lineno, rec in json_records(utf8_lines(path), name):
        if "term" not in rec or "concept" not in rec:
            raise FormatError(f"{name}: ontology record needs 'term' and 'concept'", lineno)
        ont.add(as_text(rec["term"], "'term'", name, lineno),
                as_texts(rec.get("synonyms", []), "'synonyms'", name, lineno),
                as_text(rec["concept"], "'concept'", name, lineno))
    return ont


class StrategyWeights(Record):
    """Linear scorer configuration: class list, threshold, class x feature weights."""

    __slots__ = _fields = ("classes", "tau", "weights")

    def __init__(self, classes: list[str], tau: float, weights: dict[str, dict[str, float]]):
        self.classes = classes
        self.tau = tau
        self.weights = weights

    def validate_against(self, feature_names: set[str]) -> None:
        for cls in self.classes:
            for feat in self.weights.get(cls, {}):
                if feat not in feature_names:
                    raise ConfigError(
                        f"weights for class {cls!r} reference unknown feature {feat!r}"
                    )


def default_weights() -> StrategyWeights:
    return StrategyWeights(
        classes=["greedy", "divide-and-conquer", "dynamic-programming"],
        tau=0.5,
        weights={
            "greedy": {"f_kw_greedy": 0.6},
            "divide-and-conquer": {
                "f_rec": 0.4,
                "f_multi": 0.3,
                "f_kw_divide-and-conquer": 0.5,
                "f_depth": 0.05,
            },
            "dynamic-programming": {"f_kw_dynamic-programming": 0.6, "f_rec": 0.1},
        },
    )


def _number(value, what: str) -> float:
    """A JSON number, not a bool, a string, NaN or an infinity, as a float."""
    if (type(value) is not int and type(value) is not float) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number")
    return float(value)


def load_weights(path: str) -> StrategyWeights:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or not UTF-8
            raise ConfigError(f"bad weights file {path}: {exc}") from exc
    try:
        classes = as_texts(doc["classes"], "'classes'", f"weights file {path}")
        tau = _number(doc.get("tau", 0.5), "'tau'")
        weights = {
            str(cls): {str(f): _number(v, f"weight {cls}/{f}") for f, v in feats.items()}
            for cls, feats in doc["weights"].items()
        }
    # AttributeError: the weights table or one of its rows is not an object;
    # OverflowError: an integer too large for a float
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad weights file {path}: {exc}") from exc
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    for cls in classes:
        if cls not in weights:
            raise ConfigError(f"class {cls!r} listed but has no weight row")
    return StrategyWeights(classes=classes, tau=tau, weights=weights)
