"""Tagged-image corpus ingestion and the two-step tag cleansing.

Raw tags go through: lowercase -> tokenize on non-alphanumeric runs ->
drop short and stopword tokens -> discard the whole tag if any surviving
token is meaningless or fails vocabulary lookup after lemmatization.
Surviving tags are re-joined from lemmatized tokens, so "Running!" and
"runs" both land on the canonical tag "run".

Candidate concepts are the most frequent canonical tags within one event,
counted at most once per image.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError, PreconditionError
from .ontology import ConceptBankTree

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_MIN_TOKEN_LEN = 2


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal non-alphanumeric runs; tokens shorter
    than two characters are dropped as non-words."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= _MIN_TOKEN_LEN]


@dataclass
class Lexicon:
    """Stand-in for the stopword list, meaningless-word list and WordNet:
    a lemma table plus a vocabulary of canonical tokens."""

    stopwords: frozenset[str] = frozenset()
    meaningless_words: frozenset[str] = frozenset()
    lemma_map: dict[str, str] = field(default_factory=dict)
    vocabulary: frozenset[str] = frozenset()

    def __post_init__(self):
        for token, target in self.lemma_map.items():
            if self.lemma_map.get(target, target) != target:
                raise DataFormatError(
                    f"lemma map not idempotent: {token!r} -> {target!r} -> "
                    f"{self.lemma_map[target]!r}"
                )

    def lemma(self, token: str) -> str:
        return self.lemma_map.get(token, token)

    def content_tokens(self, text: str) -> list[str]:
        """Tokenize, drop stopwords, lemmatize. Used for tags and queries
        alike so that e.g. "grooming" always meets "groom"."""
        return [self.lemma(t) for t in tokenize(text) if t not in self.stopwords]


def cleanse_tag(tag: str, lexicon: Lexicon) -> str | None:
    """Canonicalize one raw tag; None means "discard this tag".

    Total function: any tag whose surviving tokens are all meaningful
    vocabulary words comes back as the space-joined lemmatized tokens.
    """
    tokens = [t for t in tokenize(tag) if t not in lexicon.stopwords]
    if not tokens:
        return None
    lemmas = []
    for token in tokens:
        lemma = lexicon.lemma(token)
        if token in lexicon.meaningless_words or lemma in lexicon.meaningless_words:
            return None
        if lemma not in lexicon.vocabulary:
            return None
        lemmas.append(lemma)
    return " ".join(lemmas)


@dataclass
class ImageRecord:
    image_id: str
    event_id: str
    image_path: Path
    raw_tags: list[str]
    tokens_by_tag: list[list[str]] = field(default_factory=list)

    def canonical_tags(self) -> set[str]:
        """Set of cleansed tags (set semantics: per-image multiplicity ignored)."""
        return {" ".join(tokens) for tokens in self.tokens_by_tag if tokens}


@dataclass
class CandidateConcept:
    name: str
    event_id: str
    frequency: int
    image_ids: list[str]

    def __post_init__(self):
        if self.frequency != len(self.image_ids) or self.frequency < 1:
            raise PreconditionError(
                f"candidate {self.name!r}: frequency {self.frequency} != "
                f"{len(self.image_ids)} supporting images"
            )


def discover_candidates(
    records: Sequence[ImageRecord],
    lexicon: Lexicon,
    top_k: int = 100,
) -> list[CandidateConcept]:
    """Rank an event's cleansed tags by image frequency, keep the top_k.

    Ties break lexicographically on the tag so reruns are deterministic.
    """
    if not records:
        raise PreconditionError("cannot discover candidates from an empty corpus")
    event_ids = {r.event_id for r in records}
    if len(event_ids) != 1:
        raise PreconditionError(f"records span multiple events: {sorted(event_ids)}")
    event_id = records[0].event_id

    supporters: dict[str, list[str]] = defaultdict(list)
    for record in records:
        if not record.tokens_by_tag:
            record.tokens_by_tag = [
                _tag_tokens(tag, lexicon) for tag in record.raw_tags
            ]
        for tag in sorted(record.canonical_tags()):
            supporters[tag].append(record.image_id)

    candidates = [
        CandidateConcept(
            name=tag,
            event_id=event_id,
            frequency=len(image_ids),
            image_ids=sorted(image_ids),
        )
        for tag, image_ids in supporters.items()
    ]
    candidates.sort(key=lambda c: (-c.frequency, c.name))
    return candidates[:top_k]


def _tag_tokens(tag: str, lexicon: Lexicon) -> list[str]:
    cleansed = cleanse_tag(tag, lexicon)
    return cleansed.split(" ") if cleansed else []


def load_manifest(
    path: str | Path,
    tree: ConceptBankTree,
    lexicon: Lexicon | None = None,
    channels: Sequence[str] | None = None,
) -> list[ImageRecord]:
    """Read an image manifest (TSV: image_id, event_name, image_path, tags).

    image_path is resolved relative to the manifest location. A .ppm path
    must exist as a file; any other path is a descriptor stem and must have
    <stem>.<channel>.cbfv files for the configured channels. Rows naming
    unknown or discovery-excluded events, or missing files, are rejected.
    """
    path = Path(path)
    lines = _text_lines(path, "image manifest")
    root = path.parent
    records: list[ImageRecord] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataFormatError(
                f"{path.name}:{lineno}: expected 4 tab-separated columns, got {len(parts)}"
            )
        image_id, event_name, image_path, tag_field = parts
        if image_id in seen_ids:
            raise DataFormatError(f"{path.name}:{lineno}: duplicate image id {image_id!r}")
        seen_ids.add(image_id)
        try:
            event = tree.event_by_name(event_name)
        except PreconditionError:
            raise DataFormatError(
                f"{path.name}:{lineno}: unknown event {event_name!r}"
            ) from None
        if not event.visually_detectable:
            raise DataFormatError(
                f"{path.name}:{lineno}: event {event_name!r} is excluded from discovery"
            )
        resolved = (root / image_path).resolve()
        _check_image_files(resolved, channels, f"{path.name}:{lineno}")
        tags = [t for t in tag_field.split(",") if t.strip()]
        record = ImageRecord(
            image_id=image_id,
            event_id=event.id,
            image_path=resolved,
            raw_tags=tags,
        )
        if lexicon is not None:
            record.tokens_by_tag = [_tag_tokens(t, lexicon) for t in tags]
        records.append(record)
    if not records:
        raise DataFormatError(f"image manifest {path} has no image rows")
    return records


def _check_image_files(
    resolved: Path, channels: Sequence[str] | None, where: str
) -> None:
    if resolved.suffix == ".ppm":
        if not resolved.is_file():
            raise DataFormatError(f"{where}: missing image file {resolved}")
        return
    if channels:
        for channel in channels:
            f = resolved.parent / f"{resolved.name}.{channel}.cbfv"
            if not f.is_file():
                raise DataFormatError(f"{where}: missing descriptor file {f}")
        return
    if not list(resolved.parent.glob(resolved.name + ".*.cbfv")):
        raise DataFormatError(f"{where}: no descriptor files for stem {resolved}")


def load_lexicon(directory: str | Path) -> Lexicon:
    """Load the four lexicon files: stopwords.txt, meaningless.txt,
    lemma.tsv (token<TAB>lemma) and vocabulary.txt, one token per line."""
    directory = Path(directory)
    stopwords = _read_token_file(directory / "stopwords.txt")
    meaningless = _read_token_file(directory / "meaningless.txt")
    vocabulary = _read_token_file(directory / "vocabulary.txt")
    lemma_map: dict[str, str] = {}
    for lineno, line in enumerate(_text_lines(directory / "lemma.tsv", "lexicon file"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"lemma.tsv:{lineno}: expected token<TAB>lemma")
        lemma_map[parts[0]] = parts[1]
    return Lexicon(
        stopwords=stopwords,
        meaningless_words=meaningless,
        lemma_map=lemma_map,
        vocabulary=vocabulary,
    )


def _read_token_file(path: Path) -> frozenset[str]:
    return frozenset(line.strip() for line in _text_lines(path, "lexicon file") if line.strip())


def _text_lines(path: str | Path, kind: str) -> list[str]:
    """The lines of a UTF-8 text input; an unreadable or undecodable file
    is a DataFormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {kind} {path}: {exc}") from exc
