"""Labeled dataset files for training and evaluating classifiers.

One reader, `load_dataset`, takes either layout and tells them apart
by the file's first non-blank line: if it starts with "{" and parses
as a JSON object, the file is read as JSON lines, and otherwise as CSV.
A UTF-8 byte-order mark at the start of either layout is skipped, and
a byte that is not UTF-8 is read as the extractor reads git's text
(surrogateescape), so a message keeps the bytes git gave.

- CSV, the canonical layout: one message per row and four columns
  (contributor_id, repository_id, label, message), label in
  {bot, human}, messages quoted so they may contain commas and
  newlines. The header row is optional. Rows are read by
  `identity.csv_rows`, the reader of mapping files.
- JSON lines, the public ground-truth commit dump: one object per line
  with "name", "repository", "message" and a boolean "bot".

Rows for one (contributor, repository) pair need not be consecutive;
they accumulate into one corpus, a list of messages in the order they
appear, which the file gives newest first.

`featurize` turns a loaded dataset into the arrays (X, y) that the
split, the cross-validation folds, every trainer and every score index:
one float64 feature row per corpus and its int64 label, bot 1.
"""

import json
import logging
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import MalformedDataset
from .features import FEATURE_NAMES, FeatureConfig, compute_features
from .forest import BOT, HUMAN, LABEL_IDS
from .identity import csv_rows
from .parallel import run_tasks

logger = logging.getLogger(__name__)

_HEADER = ["contributor_id", "repository_id", "label", "message"]


class DatasetEntry(NamedTuple):
    contributor: str
    repository: str
    corpus: list[str]  # messages, newest first
    label: str


class LabeledDataset(NamedTuple):
    entries: list[DatasetEntry]
    n_excluded: int = 0  # corpora dropped for having too few messages


def _build_dataset(rows, min_messages: int) -> LabeledDataset:
    """rows: iterable of (contributor, repository, label, message)."""
    corpora: dict[tuple[str, str], tuple[str, list[str]]] = {}  # in first-seen order
    for contributor, repository, label, message in rows:
        first_label, messages = corpora.setdefault((contributor, repository), (label, []))
        if first_label != label:
            raise MalformedDataset(
                f"conflicting labels for {contributor!r} in {repository!r}"
            )
        messages.append(message)

    entries = [
        DatasetEntry(contributor, repository, messages, label)
        for (contributor, repository), (label, messages) in corpora.items()
        if len(messages) >= min_messages
    ]
    n_excluded = len(corpora) - len(entries)
    if n_excluded:
        logger.warning(
            "excluded %d contributor-repository pairs with fewer than %d messages",
            n_excluded,
            min_messages,
        )
    return LabeledDataset(entries=entries, n_excluded=n_excluded)


def _csv_rows(handle):
    for row_number, row in csv_rows(handle, _HEADER, MalformedDataset):
        if row[2] not in (BOT, HUMAN):
            raise MalformedDataset(f"row {row_number}: unknown label {row[2]!r}")
        yield row


def _json_lines_rows(handle):
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
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedDataset(f"line {line_number}: {exc}") from exc
        if not isinstance(is_bot, bool):
            raise MalformedDataset(f"line {line_number}: 'bot' must be a boolean")
        if not all(isinstance(text, str) for text in (contributor, repository, message)):
            raise MalformedDataset(
                f"line {line_number}: 'name', 'repository' and 'message' must be strings"
            )
        yield contributor, repository, BOT if is_bot else HUMAN, message


def _is_json_lines(handle) -> bool:
    """Whether the first non-blank line starts with "{" and is a JSON object; rewinds the handle."""
    first = next((line for line in handle if line.strip()), "")
    handle.seek(0)
    try:
        return first.lstrip().startswith("{") and isinstance(json.loads(first), dict)
    except json.JSONDecodeError:
        return False
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or deep nesting
        raise MalformedDataset(f"first non-blank line: {exc}") from exc


def load_dataset(path, min_messages: int = 10) -> LabeledDataset:
    """Read a labeled dataset in the CSV or the JSON-lines layout."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        rows = _json_lines_rows(handle) if _is_json_lines(handle) else _csv_rows(handle)
        return _build_dataset(rows, min_messages=min_messages)


def featurize(
    dataset: LabeledDataset,
    config: FeatureConfig = FeatureConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows X and labels y of every entry, in dataset order.

    X is float64 of shape (n, 4), columns in FEATURE_NAMES order; y is
    int64 of shape (n,), bot 1 and human 0. A dataset loaded with
    config.min_messages has no corpus too small for features; one that
    has raises MalformedDataset, naming the first such corpus in dataset
    order.

    `compute_features` is mapped over the corpora by
    `parallel.run_tasks`, on every CPU this process may run on. Each
    corpus is a task, and the runner's queue entries group consecutive
    tasks only beyond 1,024 corpora. A queue entry costs about 2 µs and
    a corpus 0.3-0.6 ms on a 2-CPU machine, so finer tasks balance the
    processes at no measurable cost: 16 corpora per task read no faster
    on 72 or 2,000 corpora.
    """
    corpora = [entry.corpus for entry in dataset.entries]
    rows = run_tasks(partial(compute_features, config=config), corpora)
    for entry, vector in zip(dataset.entries, rows):
        if vector is None:
            raise MalformedDataset(
                f"{entry.contributor!r} has fewer than {config.min_messages} messages"
            )
    X = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    y = np.array([LABEL_IDS[entry.label] for entry in dataset.entries], dtype=np.int64)
    return X, y
