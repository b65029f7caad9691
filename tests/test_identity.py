import calendar

import pytest

from gitbot.errors import DuplicateName, MalformedMapping
from gitbot.features import MessageCorpus
from gitbot.identity import IGNORE_IDENTITY, IdentityMapping, apply_mapping, load_mapping

_BASE = calendar.timegm((2021, 5, 1, 0, 0, 0))  # Unix seconds of 2021-05-01T00:00Z


def write_mapping(tmp_path, text):
    path = tmp_path / "mapping.csv"
    path.write_text(text, encoding="utf-8")
    return path


def corpus(messages, start_hour=0):
    stamps = [
        _BASE + 3600 * start_hour + 60 * (len(messages) - i)
        for i in range(len(messages))
    ]
    return MessageCorpus(messages=list(messages), timestamps=stamps)


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


class TestApplyMapping:
    def test_additive_merge(self):
        groups = {
            "bot-a": corpus([f"a{i}" for i in range(5)], start_hour=0),
            "bot-b": corpus([f"b{i}" for i in range(7)], start_hour=8),
        }
        mapping = IdentityMapping({"bot-a": "dependabot", "bot-b": "dependabot"})
        merged = apply_mapping(groups, mapping)
        assert set(merged) == {"dependabot"}
        assert len(merged["dependabot"]) == 12
        assert sorted(merged["dependabot"].messages) == sorted(
            groups["bot-a"].messages + groups["bot-b"].messages
        )

    def test_merge_orders_by_recency(self):
        groups = {
            "old": corpus(["o1", "o2"], start_hour=0),
            "new": corpus(["n1", "n2"], start_hour=12),
        }
        mapping = IdentityMapping({"old": "both", "new": "both"})
        merged = apply_mapping(groups, mapping)["both"]
        assert merged.messages == ["n1", "n2", "o1", "o2"]
        assert merged.timestamps == sorted(merged.timestamps, reverse=True)

    def test_ignore_drops_names(self):
        groups = {"ci-runner": corpus(["m"] * 30)}
        merged = apply_mapping(groups, IdentityMapping({"ci-runner": IGNORE_IDENTITY}))
        assert merged == {}

    def test_empty_mapping_is_identity(self):
        groups = {
            "alice": corpus(["a"]),
            "bob": corpus(["b", "c"]),
        }
        merged = apply_mapping(groups, IdentityMapping())
        assert merged == groups

    def test_unmapped_names_pass_through(self):
        groups = {
            "alice": corpus(["a"]),
            "bot-a": corpus(["x"]),
        }
        merged = apply_mapping(groups, IdentityMapping({"bot-a": "dependabot"}))
        assert set(merged) == {"alice", "dependabot"}
        assert merged["alice"] is groups["alice"]

    def test_renamed_single_name_passes_through(self):
        groups = {"bot-a": corpus(["x", "y"]), "bob": corpus(["b"])}
        merged = apply_mapping(groups, IdentityMapping({"bot-a": "dependabot"}))
        assert merged["dependabot"] is groups["bot-a"]
        assert merged["bob"] is groups["bob"]

    def test_message_count_conserved_minus_ignored(self):
        groups = {
            "a": corpus(["1", "2"]),
            "b": corpus(["3"]),
            "c": corpus(["4", "5", "6"]),
        }
        mapping = IdentityMapping({"a": "ab", "b": "ab", "c": IGNORE_IDENTITY})
        merged = apply_mapping(groups, mapping)
        total_before = sum(len(c) for c in groups.values())
        total_after = sum(len(c) for c in merged.values())
        assert total_after == total_before - 3

    def test_iteration_order_insensitive(self):
        base = {
            "a": corpus(["a1", "a2"], start_hour=2),
            "b": corpus(["b1"], start_hour=2),  # colliding timestamps
            "c": corpus(["c1", "c2"], start_hour=5),
        }
        mapping = IdentityMapping({"a": "merged", "b": "merged", "c": "merged"})
        orders = [
            dict(items)
            for items in (
                list(base.items()),
                list(reversed(base.items())),
                [("b", base["b"]), ("c", base["c"]), ("a", base["a"])],
            )
        ]
        results = [apply_mapping(g, mapping)["merged"] for g in orders]
        assert results[0] == results[1] == results[2]
