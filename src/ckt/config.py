"""Configurable defaults: stopwords, token normalization, ontology, scorer weights.

Everything here can be overridden from files named in the project manifest;
the shipped values keep a bare build usable without any config.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from ckt.errors import ConfigError, FormatError
from ckt.textio import utf8_lines

# 30-word English stopword list applied during comment/query normalization.
DEFAULT_STOPWORDS = frozenset(
    [
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
        "has", "have", "in", "is", "it", "its", "of", "on", "or", "so",
        "that", "the", "this", "to", "was", "were", "what", "which", "will", "with",
    ]
)

# Callee names the parser treats as thread creation points.
DEFAULT_THREAD_CREATE_FNS = frozenset(
    ["pthread_create", "CreateThread", "thrd_create", "std::thread"]
)

# ID patterns scanned in commit summaries and bug text.
DEFAULT_BUG_PATTERNS = (r"bug#(\d+)", r"CR(\d+)")

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


@dataclass
class Ontology:
    """Term/synonym table mapping surface phrases to concept ids.

    Each phrase is stored as its normalized token tuple; matching is
    contiguous-subsequence against comment or identifier token streams.
    """

    phrases: dict[tuple[str, ...], str] = field(default_factory=dict)
    concept_labels: dict[str, str] = field(default_factory=dict)

    def add(self, term: str, synonyms: list[str], concept: str) -> None:
        self.concept_labels.setdefault(concept, term)
        for phrase in [term, *synonyms]:
            toks = tuple(normalize_tokens(phrase, frozenset()))
            if toks:
                self.phrases[toks] = concept

    def concepts(self) -> list[str]:
        return sorted(self.concept_labels)

    def hits(self, tokens: list[str]) -> dict[str, int]:
        """Count phrase occurrences per concept in a token sequence."""
        counts: dict[str, int] = {}
        for phrase, concept in self.phrases.items():
            n = len(phrase)
            for i in range(len(tokens) - n + 1):
                if tuple(tokens[i : i + n]) == phrase:
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
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad ontology record: {exc}", lineno) from exc
        if not isinstance(rec, dict) or "term" not in rec or "concept" not in rec:
            raise FormatError("ontology record needs 'term' and 'concept'", lineno)
        synonyms = rec.get("synonyms", [])
        if not isinstance(synonyms, list):
            raise FormatError("'synonyms' must be a list", lineno)
        ont.add(str(rec["term"]), [str(s) for s in synonyms], str(rec["concept"]))
    return ont


@dataclass
class StrategyWeights:
    """Linear scorer configuration: class list, threshold, class x feature weights."""

    classes: list[str]
    tau: float
    weights: dict[str, dict[str, float]]

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


def load_weights(path: str) -> StrategyWeights:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ConfigError(f"bad weights file {path}: {exc}") from exc
    try:
        classes = [str(c) for c in doc["classes"]]
        tau = float(doc.get("tau", 0.5))
        weights = {
            str(cls): {str(f): float(v) for f, v in feats.items()}
            for cls, feats in doc["weights"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad weights file {path}: {exc}") from exc
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    for cls in classes:
        if cls not in weights:
            raise ConfigError(f"class {cls!r} listed but has no weight row")
    return StrategyWeights(classes=classes, tau=tau, weights=weights)
