import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gitbot.errors import DuplicateName, MalformedMapping
from gitbot.extractor import RawCommit, group_messages
from gitbot.identity import IGNORE_IDENTITY, IdentityMapping, apply_mapping, load_mapping


def write_mapping(tmp_path, text):
    path = tmp_path / "mapping.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadMapping:
    def test_two_names_one_identity(self, tmp_path):
        path = write_mapping(tmp_path, "bot-a,dependabot\nbot-b,dependabot\n")
        mapping = load_mapping(path)
        assert mapping.entries == {"bot-a": "dependabot", "bot-b": "dependabot"}

    def test_ignore_identity(self, tmp_path):
        path = write_mapping(tmp_path, "ci-runner,IGNORE\n")
        mapping = load_mapping(path)
        assert mapping.entries["ci-runner"] == IGNORE_IDENTITY

    def test_empty_file(self, tmp_path):
        assert load_mapping(write_mapping(tmp_path, "")).entries == {}

    def test_header_row_skipped(self, tmp_path):
        path = write_mapping(tmp_path, "name,identity\nbot-a,dependabot\n")
        assert load_mapping(path).entries == {"bot-a": "dependabot"}

    @pytest.mark.parametrize("header", ["", "name,identity\n"], ids=["no header", "header"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        path = tmp_path / "mapping.csv"
        path.write_text(header + "alice,Alice\nbob,Alice\n", encoding="utf-8-sig")
        assert load_mapping(path).entries == {"alice": "Alice", "bob": "Alice"}

    def test_a_name_that_is_not_utf8_is_read_as_git_names_are(self, tmp_path):
        # the extractor decodes git's names with surrogateescape; so does the mapping
        path = tmp_path / "mapping.csv"
        path.write_bytes(b"Bad\xffName,Bad\nB\xe4d,Bad\n")
        assert load_mapping(path).entries == {"Bad\udcffName": "Bad", "B\udce4d": "Bad"}

    def test_quoted_fields(self, tmp_path):
        path = write_mapping(tmp_path, '"Smith, Jane",jane\n')
        assert load_mapping(path).entries == {"Smith, Jane": "jane"}

    def test_wrong_arity(self, tmp_path):
        path = write_mapping(tmp_path, "only-one-field\n")
        with pytest.raises(MalformedMapping):
            load_mapping(path)

    def test_empty_identity(self, tmp_path):
        path = write_mapping(tmp_path, "someone,\n")
        with pytest.raises(MalformedMapping):
            load_mapping(path)

    def test_duplicate_conflicting(self, tmp_path):
        path = write_mapping(tmp_path, "x,a\nx,b\n")
        with pytest.raises(DuplicateName):
            load_mapping(path)

    def test_duplicate_consistent_is_fine(self, tmp_path):
        path = write_mapping(tmp_path, "x,a\nx,a\n")
        assert load_mapping(path).entries == {"x": "a"}

    def test_a_name_beyond_the_csv_field_limit_is_read(self, tmp_path, default_field_limit):
        name = "n" * 200_000  # over csv's default limit of 131,072 characters
        path = write_mapping(tmp_path, f"{name},alice\n")
        assert load_mapping(path).entries == {name: "alice"}

    def test_a_reader_error_is_malformed_naming_its_row(self, tmp_path, monkeypatch):
        # strict quoting makes a character after a closing quote a csv.Error
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda handle: reader(handle, strict=True))
        path = write_mapping(tmp_path, 'x,a\n"y"z,b\n')
        with pytest.raises(MalformedMapping, match="row 2: ',' expected after '\"'"):
            load_mapping(path)


class TestApplyMapping:
    def test_additive_merge(self):
        groups = {"bot-a": [0, 2, 4, 6, 8], "bot-b": [1, 3, 5, 7, 9, 10, 11]}
        mapping = IdentityMapping({"bot-a": "dependabot", "bot-b": "dependabot"})
        merged = apply_mapping(groups, mapping)
        assert merged == {"dependabot": list(range(12))}

    def test_ignore_drops_names(self):
        groups = {"ci-runner": list(range(30))}
        merged = apply_mapping(groups, IdentityMapping({"ci-runner": IGNORE_IDENTITY}))
        assert merged == {}

    @pytest.mark.parametrize("mapping", [IdentityMapping(), IdentityMapping({"a": "b"})],
                             ids=["no mapping", "unlisted"])
    def test_a_name_spelled_ignore_is_kept_unless_the_mapping_lists_it(self, mapping):
        groups = {IGNORE_IDENTITY: [0, 2], "alice": [1]}
        assert apply_mapping(groups, mapping) == groups
        listed = IdentityMapping({**mapping.entries, IGNORE_IDENTITY: IGNORE_IDENTITY})
        assert apply_mapping(groups, listed) == {"alice": [1]}

    def test_empty_mapping_is_identity(self):
        groups = {"alice": [0], "bob": [1, 2]}
        merged = apply_mapping(groups, IdentityMapping())
        assert merged == groups

    def test_unmapped_names_pass_through(self):
        groups = {"alice": [1], "bot-a": [0]}
        merged = apply_mapping(groups, IdentityMapping({"bot-a": "dependabot"}))
        assert set(merged) == {"alice", "dependabot"}
        assert merged["alice"] is groups["alice"]

    def test_renamed_single_name_passes_through(self):
        groups = {"bot-a": [0, 2], "bob": [1]}
        merged = apply_mapping(groups, IdentityMapping({"bot-a": "dependabot"}))
        assert merged["dependabot"] is groups["bot-a"]
        assert merged["bob"] is groups["bob"]

    def test_message_count_conserved_minus_ignored(self):
        groups = {"a": [0, 3], "b": [1], "c": [2, 4, 5]}
        mapping = IdentityMapping({"a": "ab", "b": "ab", "c": IGNORE_IDENTITY})
        merged = apply_mapping(groups, mapping)
        total_before = sum(len(c) for c in groups.values())
        total_after = sum(len(c) for c in merged.values())
        assert total_after == total_before - 3


_NAMES = ["alice", "bob", "carol", "dave", "erin"]
# targets: a new identity (rename, many-to-one), another name, or IGNORE
_IDENTITIES = ["merged", "other", "alice", "bob", IGNORE_IDENTITY]


@given(
    names=st.lists(st.sampled_from(_NAMES), max_size=30),
    entries=st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_IDENTITIES)),
    data=st.data(),
)
def test_each_identity_holds_its_commits_in_walk_order(names, entries, data):
    commits = [RawCommit(name, f"m{i}") for i, name in enumerate(names)]
    mapping = IdentityMapping(entries)
    groups = group_messages(commits)
    merged = apply_mapping(groups, mapping)
    resolved = [mapping.resolve(commit.name) for commit in commits]
    assert set(merged) == set(resolved) - {IGNORE_IDENTITY}
    for identity, positions in merged.items():
        assert positions == [i for i, other in enumerate(resolved) if other == identity]
    # no commit of an ignored name survives, and every other commit does
    kept = {i for positions in merged.values() for i in positions}
    assert kept == {i for i, identity in enumerate(resolved) if identity != IGNORE_IDENTITY}
    # the result does not depend on the order in which names are listed
    shuffled = dict(data.draw(st.permutations(list(groups.items()))))
    assert apply_mapping(shuffled, mapping) == merged
