"""Labeled dataset files for training and evaluating classifiers.

Canonical format: CSV with one message per row and four columns
(contributor_id, repository_id, label, message), label in {bot, human},
messages quoted so they may contain commas and newlines. Rows for one
(contributor, repository) pair are consecutive-or-not and accumulate
into one corpus, ordered as they appear (most recent first).

An archive converter accepts the JSON-lines layout of the public
ground-truth commit dump (one object per line with "name",
"repository", "message" and a boolean "bot") and normalizes it.
"""

import csv
import json
import logging
from dataclasses import dataclass

from .errors import MalformedDataset
from .features import FeatureConfig, MessageCorpus, compute_features
from .forest import BOT, HUMAN, LabeledExample

logger = logging.getLogger(__name__)

_HEADER = ["contributor_id", "repository_id", "label", "message"]


@dataclass(frozen=True)
class DatasetEntry:
    contributor: str
    repository: str
    corpus: MessageCorpus
    label: str


@dataclass(frozen=True)
class LabeledDataset:
    entries: list[DatasetEntry]
    provenance: str = ""
    n_excluded: int = 0  # corpora dropped for having too few messages

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [entry.label for entry in self.entries]


def _build_dataset(rows, provenance: str, min_messages: int) -> LabeledDataset:
    """rows: iterable of (contributor, repository, label, message)."""
    order: list[tuple[str, str]] = []
    messages: dict[tuple[str, str], list[str]] = {}
    labels: dict[tuple[str, str], str] = {}
    for contributor, repository, label, message in rows:
        key = (contributor, repository)
        if key not in messages:
            order.append(key)
            messages[key] = []
            labels[key] = label
        elif labels[key] != label:
            raise MalformedDataset(
                f"conflicting labels for {contributor!r} in {repository!r}"
            )
        messages[key].append(message)

    entries = []
    n_excluded = 0
    for key in order:
        if len(messages[key]) < min_messages:
            n_excluded += 1
            continue
        contributor, repository = key
        entries.append(
            DatasetEntry(
                contributor=contributor,
                repository=repository,
                corpus=MessageCorpus(contributor=contributor, messages=messages[key]),
                label=labels[key],
            )
        )
    if n_excluded:
        logger.warning(
            "excluded %d contributor-repository pairs with fewer than %d messages",
            n_excluded,
            min_messages,
        )
    return LabeledDataset(entries=entries, provenance=provenance, n_excluded=n_excluded)


def _check_label(token: str, where: str) -> str:
    if token not in (BOT, HUMAN):
        raise MalformedDataset(f"{where}: unknown label {token!r}")
    return token


def load_dataset(path, min_messages: int = 10) -> LabeledDataset:
    """Read the canonical four-column CSV dataset."""

    def rows():
        with open(path, newline="", encoding="utf-8") as handle:
            for row_number, row in enumerate(csv.reader(handle), start=1):
                if not row:
                    continue
                if row_number == 1 and row == _HEADER:
                    continue
                if len(row) != 4:
                    raise MalformedDataset(
                        f"row {row_number}: expected 4 fields, got {len(row)}"
                    )
                contributor, repository, label, message = row
                yield contributor, repository, _check_label(label, f"row {row_number}"), message

    return _build_dataset(rows(), provenance=str(path), min_messages=min_messages)


def load_archive(path, min_messages: int = 10) -> LabeledDataset:
    """Read the public archive's JSON-lines layout directly."""

    def rows():
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    contributor = record["name"]
                    repository = record["repository"]
                    message = record["message"]
                    is_bot = record["bot"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise MalformedDataset(f"line {line_number}: {exc}") from exc
                if not isinstance(is_bot, bool):
                    raise MalformedDataset(
                        f"line {line_number}: 'bot' must be a boolean"
                    )
                yield contributor, repository, BOT if is_bot else HUMAN, message

    return _build_dataset(rows(), provenance=str(path), min_messages=min_messages)


def convert_archive(archive_path, csv_path) -> int:
    """Normalize an archive file into the canonical CSV; returns row count."""
    count = 0
    with open(archive_path, encoding="utf-8") as src, open(
        csv_path, "w", newline="", encoding="utf-8"
    ) as dst:
        writer = csv.writer(dst)
        writer.writerow(_HEADER)
        for line_number, line in enumerate(src, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                row = [
                    record["name"],
                    record["repository"],
                    BOT if record["bot"] else HUMAN,
                    record["message"],
                ]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedDataset(f"line {line_number}: {exc}") from exc
            writer.writerow(row)
            count += 1
    return count


def featurize(
    dataset: LabeledDataset,
    config: FeatureConfig = FeatureConfig(),
) -> list[LabeledExample]:
    """Feature vectors for every entry, preserving dataset order.

    Entries already satisfy the minimum-message rule, so none come
    back insufficient.
    """
    examples = []
    for entry in dataset.entries:
        vector = compute_features(entry.corpus, config)
        if vector is None:
            raise MalformedDataset(
                f"{entry.contributor!r} has fewer than {config.min_messages} messages"
            )
        examples.append(LabeledExample(features=vector, label=entry.label))
    return examples
