"""Merge contributor names into identities via a user-supplied CSV.

The mapping file has two columns, name and identity, with no header
required (a literal "name,identity" header row is tolerated). Mapping
a name to the reserved identity "IGNORE" drops that name entirely. A
UTF-8 byte-order mark, which spreadsheet exports write, is skipped.
"""

import csv
from dataclasses import dataclass, field

from .errors import DuplicateName, MalformedMapping
from .features import MessageCorpus

IGNORE_IDENTITY = "IGNORE"


@dataclass(frozen=True)
class IdentityMapping:
    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, name: str) -> str:
        return self.entries.get(name, name)


def load_mapping(path) -> IdentityMapping:
    """Parse a two-column CSV of (name, identity) rows."""
    entries: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if row_number == 1 and row == ["name", "identity"]:
                continue
            if len(row) != 2:
                raise MalformedMapping(
                    f"row {row_number}: expected 2 fields, got {len(row)}"
                )
            name, identity = row
            if not identity:
                raise MalformedMapping(f"row {row_number}: empty identity")
            if name in entries and entries[name] != identity:
                raise DuplicateName(
                    f"{name!r} mapped to both {entries[name]!r} and {identity!r}"
                )
            entries[name] = identity
    return IdentityMapping(entries=entries)


def _merge_corpora(sources: list[tuple[str, MessageCorpus]]) -> MessageCorpus:
    rows = [
        (corpus.timestamps[i], name, i, corpus.messages[i])
        for name, corpus in sources
        for i in range(len(corpus.messages))
    ]
    # stable sort: ties keep (name, original position) order, so the
    # result does not depend on the input map's iteration order
    rows.sort(key=lambda r: r[0], reverse=True)
    return MessageCorpus(messages=[r[3] for r in rows], timestamps=[r[0] for r in rows])


def apply_mapping(
    groups: dict[str, MessageCorpus], mapping: IdentityMapping
) -> dict[str, MessageCorpus]:
    """Rekey corpora by identity, merging shared ones and dropping IGNORE.

    Merged corpora are re-sorted by timestamp descending so downstream
    recency truncation selects the merged identity's newest messages.
    """
    buckets: dict[str, list[tuple[str, MessageCorpus]]] = {}
    for name in sorted(groups):
        identity = mapping.resolve(name)
        if identity == IGNORE_IDENTITY:
            continue
        buckets.setdefault(identity, []).append((name, groups[name]))
    return {
        identity: sources[0][1] if len(sources) == 1 else _merge_corpora(sources)
        for identity, sources in buckets.items()
    }
