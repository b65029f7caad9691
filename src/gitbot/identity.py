"""Merge contributor names into identities via a user-supplied CSV.

The mapping file has two columns, name and identity, with no header
required (a literal "name,identity" header row is tolerated). Mapping
a name to the reserved identity "IGNORE" drops that name entirely; a
name the mapping does not list is kept, even one spelled IGNORE. The
file is UTF-8, and a byte that is not UTF-8 is read as the extractor
reads git's (surrogateescape), so a row can name any author git gave.
A UTF-8 byte-order mark, which spreadsheet exports write, is skipped.
`csv_rows`, the CSV reader that `dataset` shares, lives here because
`analyze` imports this module without numpy.

Identities hold positions in the extracted commit list, not messages.
A merged identity keeps git's walk order, so its newest commits are
chosen as an unmerged name's are.
"""

import sys
from itertools import chain
from typing import NamedTuple

from .errors import DuplicateName, MalformedMapping

IGNORE_IDENTITY = "IGNORE"
_HEADER = ["name", "identity"]


class IdentityMapping(NamedTuple):
    entries: dict[str, str] = {}  # shared by every default mapping: never mutated

    def resolve(self, name: str) -> str:
        return self.entries.get(name, name)


def csv_rows(handle, header: list[str], error: type[Exception]):
    """(row number, row) per CSV row of len(header) fields.

    Blank rows are skipped, and so is a row 1 equal to header. A row of
    another width, or one that csv cannot parse, raises error naming it.
    """
    import csv  # only here: `analyze` without --mapping reads no CSV

    csv.field_size_limit(sys.maxsize)  # a name or a commit message may be of any length
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            if not row or (row_number == 1 and row == header):
                continue
            if len(row) != len(header):
                raise error(f"row {row_number}: expected {len(header)} fields, got {len(row)}")
            yield row_number, row
    except csv.Error as exc:
        raise error(f"row {row_number + 1}: {exc}") from exc


def load_mapping(path) -> IdentityMapping:
    """Parse a two-column CSV of (name, identity) rows."""
    entries: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for row_number, (name, identity) in csv_rows(handle, _HEADER, MalformedMapping):
            if not identity:
                raise MalformedMapping(f"row {row_number}: empty identity")
            if name in entries and entries[name] != identity:
                raise DuplicateName(f"{name!r} mapped to both {entries[name]!r} and {identity!r}")
            entries[name] = identity
    return IdentityMapping(entries=entries)


def apply_mapping(
    groups: dict[str, list[int]], mapping: IdentityMapping
) -> dict[str, list[int]]:
    """Rekey each name's commit positions by identity, dropping the names mapped to IGNORE.

    groups maps names to ascending positions in one commit list, as
    extractor.group_messages returns them. A name that is its identity's
    only source passes through as the same list; the positions of names
    that share an identity are merged into one ascending list, so the
    merge keeps git's walk order, newest first.
    """
    buckets: dict[str, list[list[int]]] = {}
    for name, positions in groups.items():
        identity = mapping.resolve(name)
        if identity == IGNORE_IDENTITY and name in mapping.entries:
            continue
        buckets.setdefault(identity, []).append(positions)
    return {
        identity: sources[0] if len(sources) == 1 else sorted(chain.from_iterable(sources))
        for identity, sources in buckets.items()
    }
