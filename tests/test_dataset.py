import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gitbot.dataset import LabeledDataset, featurize, load_dataset
from gitbot.errors import MalformedDataset
from gitbot.features import FEATURE_NAMES, FeatureConfig, compute_features
from gitbot.synthesis import synthetic_dataset

from .test_cli import SRC


def write_csv(tmp_path, rows, header=True, name="dataset.csv"):
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(["contributor_id", "repository_id", "label", "message"])
        writer.writerows(rows)
    return path


def contributor_rows(name, repo, label, n, prefix="msg"):
    return [[name, repo, label, f"{prefix} {i}"] for i in range(n)]


class TestLoadDataset:
    def test_two_contributors(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("b", "r1", "human", 12)
        dataset = load_dataset(write_csv(tmp_path, rows))
        assert len(dataset.entries) == 2
        assert [entry.label for entry in dataset.entries] == ["bot", "human"]
        assert len(dataset.entries[0].corpus) == 12

    def test_small_corpus_excluded_and_counted(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("tiny", "r1", "human", 9)
        dataset = load_dataset(write_csv(tmp_path, rows))
        assert len(dataset.entries) == 1
        assert dataset.n_excluded == 1

    def test_unknown_label_token(self, tmp_path):
        rows = contributor_rows("a", "r1", "robot", 12)
        with pytest.raises(MalformedDataset):
            load_dataset(write_csv(tmp_path, rows))

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,r1,bot\n", encoding="utf-8")
        with pytest.raises(MalformedDataset):
            load_dataset(path)

    def test_no_header_accepted(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12)
        dataset = load_dataset(write_csv(tmp_path, rows, header=False))
        assert len(dataset.entries) == 1

    def test_multiline_quoted_messages(self, tmp_path):
        rows = [["a", "r1", "bot", f"line one {i}\nline two, with comma"] for i in range(12)]
        dataset = load_dataset(write_csv(tmp_path, rows))
        assert "\n" in dataset.entries[0].corpus[0]

    def test_a_message_beyond_the_csv_field_limit_is_read_whole(self, tmp_path,
                                                                default_field_limit):
        # a whole commit body of 200,000 characters, over csv's default 131,072
        body = ("Release notes\n\n" + "- fix a thing\n" * 14_285)[:200_000]
        rows = [["a", "r1", "bot", body], *contributor_rows("a", "r1", "bot", 11),
                *contributor_rows("b", "r1", "human", 12)]
        dataset = load_dataset(write_csv(tmp_path, rows))
        assert dataset.entries[0].corpus[0] == body
        X, _ = featurize(dataset)
        assert X[0].tolist() == list(compute_features(dataset.entries[0].corpus))

    def test_a_reader_error_is_malformed_naming_its_row(self, tmp_path, monkeypatch):
        # strict quoting makes a character after a closing quote a csv.Error
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda handle: reader(handle, strict=True))
        path = tmp_path / "bad.csv"
        path.write_text('a,r1,bot,fine\na,r1,bot,"quoted"tail\n', encoding="utf-8")
        with pytest.raises(MalformedDataset, match="row 2: ',' expected after '\"'"):
            load_dataset(path)

    def test_conflicting_labels_rejected(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 6) + contributor_rows("a", "r1", "human", 6)
        with pytest.raises(MalformedDataset):
            load_dataset(write_csv(tmp_path, rows))

    def test_same_name_in_two_repositories_is_two_entries(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("a", "r2", "bot", 12)
        dataset = load_dataset(write_csv(tmp_path, rows))
        assert len(dataset.entries) == 2

    def test_headerless_csv_starting_with_a_brace_is_csv(self, tmp_path):
        rows = contributor_rows("{curly}", "r1", "bot", 12)
        dataset = load_dataset(write_csv(tmp_path, rows, header=False))
        assert [entry.contributor for entry in dataset.entries] == ["{curly}"]

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_blank_file_is_an_empty_dataset(self, tmp_path, text):
        path = tmp_path / "blank"
        path.write_text(text, encoding="utf-8")
        assert load_dataset(path) == LabeledDataset(entries=[], n_excluded=0)

    @pytest.mark.parametrize("layout", ["csv", "json lines"])
    def test_byte_order_mark_skipped(self, tmp_path, layout):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("b", "r1", "human", 10)
        path = write_csv(tmp_path, rows)
        if layout == "json lines":
            path.write_text("".join(
                json.dumps({"name": name, "repository": repo, "bot": label == "bot",
                            "message": message}) + "\n"
                for name, repo, label, message in rows
            ), encoding="utf-8")
        marked = tmp_path / "marked"
        marked.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_dataset(marked) == load_dataset(path)
        assert len(load_dataset(marked).entries) == 2


class TestArchive:
    def write_archive(self, tmp_path, records):
        path = tmp_path / "archive.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    def archive_records(self, name, repo, bot, n):
        return [
            {"name": name, "repository": repo, "bot": bot, "message": f"m {i}"}
            for i in range(n)
        ]

    def test_load_archive(self, tmp_path):
        records = self.archive_records("x", "r", True, 12) + self.archive_records("y", "r", False, 15)
        dataset = load_dataset(self.write_archive(tmp_path, records))
        assert [entry.label for entry in dataset.entries] == ["bot", "human"]
        assert dataset.entries[0].corpus == [f"m {i}" for i in range(12)]

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\n', encoding="utf-8")
        with pytest.raises(MalformedDataset):
            load_dataset(path)

    def test_csv_and_json_lines_load_equal_datasets(self, tmp_path):
        rows = (
            contributor_rows("a", "r1", "bot", 12)
            + [["b", "r1", "human", f"line one {i}\nline two, with \"quotes\""] for i in range(11)]
            + contributor_rows("tiny", "r2", "human", 3)
            + contributor_rows("a", "r2", "human", 10)
        )
        records = [
            {"name": name, "repository": repo, "bot": label == "bot", "message": message}
            for name, repo, label, message in rows
        ]
        json_lines = self.write_archive(tmp_path, records)
        # the layout is read from the first non-blank line
        json_lines.write_text("\n" + json_lines.read_text(encoding="utf-8"), encoding="utf-8")
        with_header = load_dataset(write_csv(tmp_path, rows))
        headerless = load_dataset(write_csv(tmp_path, rows, header=False, name="plain.csv"))
        assert with_header == headerless == load_dataset(json_lines)
        assert len(with_header.entries) == 3 and with_header.n_excluded == 1

    def test_non_boolean_bot_field(self, tmp_path):
        records = [{"name": "x", "repository": "r", "bot": "yes", "message": "m"}]
        with pytest.raises(MalformedDataset):
            load_dataset(self.write_archive(tmp_path, records))


    @pytest.mark.parametrize("field", ["name", "repository", "message"])
    def test_non_string_text_field(self, tmp_path, field):
        records = self.archive_records("x", "r", True, 12)
        records[3][field] = None
        with pytest.raises(MalformedDataset, match="line 4"):
            load_dataset(self.write_archive(tmp_path, records))


class TestFeaturize:
    def test_order_and_labels_preserved(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("b", "r1", "human", 12)
        dataset = load_dataset(write_csv(tmp_path, rows))
        X, y = featurize(dataset, FeatureConfig())
        assert y.tolist() == [1, 0]  # bot, human
        assert X[0, FEATURE_NAMES.index("n_messages")] == 12

    def test_float64_rows_in_feature_order_and_int64_labels(self, tmp_path):
        rows = (
            contributor_rows("a", "r1", "bot", 12)
            + contributor_rows("b", "r1", "human", 15)
            + contributor_rows("c", "r2", "human", 11)
        )
        dataset = load_dataset(write_csv(tmp_path, rows))
        X, y = featurize(dataset, FeatureConfig())
        assert (X.dtype, X.shape, y.dtype, y.shape) == (np.float64, (3, 4), np.int64, (3,))
        for row, entry in zip(X.tolist(), dataset.entries):
            assert tuple(row) == compute_features(entry.corpus, FeatureConfig())

    @pytest.mark.parametrize("layout", ["csv", "json lines"])
    def test_a_message_that_is_not_utf8_loads_and_featurizes(self, tmp_path, layout):
        # git keeps a message's bytes, and so does a dataset exported from it
        rows = contributor_rows("a", "r1", "bot", 12, prefix="bump caf\xe9")
        text = write_csv(tmp_path, rows).read_text(encoding="utf-8")
        if layout == "json lines":
            text = "".join(json.dumps({"name": name, "repository": repo, "bot": True,
                                       "message": message}, ensure_ascii=False) + "\n"
                           for name, repo, _, message in rows)
        path = tmp_path / "latin1"
        path.write_bytes(text.encode("latin-1"))
        assert b"caf\xe9 0" in path.read_bytes()  # 0xe9 alone is not UTF-8
        dataset = load_dataset(path)
        corpus = [f"bump caf\udce9 {i}" for i in range(12)]
        assert [entry.corpus for entry in dataset.entries] == [corpus]
        X, y = featurize(dataset, FeatureConfig())
        assert tuple(X[0]) == compute_features(corpus, FeatureConfig())
        assert y.tolist() == [1]

    def test_empty_dataset_gives_empty_arrays(self):
        X, y = featurize(LabeledDataset(entries=[]))
        assert (X.dtype, X.shape, y.dtype, y.shape) == (np.float64, (0, 4), np.int64, (0,))

    def test_too_small_corpus_rejected(self, tmp_path):
        rows = contributor_rows("a", "r1", "bot", 12) + contributor_rows("tiny", "r1", "human", 12)
        entries = load_dataset(write_csv(tmp_path, rows)).entries
        small = entries[1]._replace(corpus=["m"] * 9)
        with pytest.raises(MalformedDataset, match="'tiny' has fewer than 10 messages"):
            featurize(LabeledDataset(entries=[entries[0], small]), FeatureConfig())

    @pytest.mark.parametrize("available", [{0}, {0, 1, 2}], ids=["one-cpu", "three-cpus"])
    def test_rows_and_the_first_small_corpus_in_dataset_order_on_any_cpus(self, monkeypatch, available):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(available))
        dataset = synthetic_dataset(n_bots=20, n_humans=20, seed=9, max_messages=30)
        X, y = featurize(dataset)
        assert (X.dtype, X.shape, y.dtype, y.shape) == (np.float64, (40, 4), np.int64, (40,))
        for row, entry in zip(X.tolist(), dataset.entries):
            assert tuple(row) == compute_features(entry.corpus)
        entries = list(dataset.entries)
        for position in (31, 17, 38):  # the second is the first in dataset order
            entries[position] = entries[position]._replace(corpus=["m"] * 9)
        with pytest.raises(MalformedDataset, match=f"^{entries[17].contributor!r} has fewer"):
            featurize(LabeledDataset(entries=entries))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no worker left

    def test_importing_the_dataset_module_loads_no_numpy(self):
        # featurize imports numpy only once its workers have started
        script = "import sys, gitbot.dataset; print('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
