import csv
import gc
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gitbot import cli, dataset, evaluation, forest
from gitbot.cli import CSV, JSON, TEXT, ResultRow, format_output, main
from gitbot.dataset import featurize, load_dataset
from gitbot.errors import UsageError
from gitbot.evaluation import (
    FAMILY_FOREST,
    FAMILY_KNN,
    FAMILY_LOGISTIC,
    FAMILY_SVM,
    FAMILY_TREE,
    evaluate_pretrained,
    format_report,
)
from gitbot.extractor import RawCommit
from gitbot.features import compute_features
from gitbot.model_io import load_model
from gitbot.synthesis import synthetic_dataset

from .conftest import CAROL_MESSAGES, add_commit, init_repo

SRC = Path(__file__).resolve().parent.parent / "src"


def analyze_json(capsys, argv):
    assert main(argv) == 0
    return {row["name"]: row["prediction"] for row in json.loads(capsys.readouterr().out)}


def test_analyze_labels_bot_human_and_unknown(capsys, cli_fixture_repo):
    predictions = analyze_json(capsys, ["analyze", "--json", str(cli_fixture_repo)])
    assert predictions == {"carol": "human", "dave": "unknown", "release-bot": "bot"}


def test_bare_repository_path_implies_analyze(capsys, cli_fixture_repo):
    explicit = analyze_json(capsys, ["analyze", "--json", str(cli_fixture_repo)])
    assert analyze_json(capsys, ["--json", str(cli_fixture_repo)]) == explicit
    assert main([str(cli_fixture_repo)]) == 0
    assert "release-bot" in capsys.readouterr().out


def test_csv_has_a_header_and_one_row_per_identity(capsys, cli_fixture_repo):
    assert main(["analyze", "--csv", str(cli_fixture_repo)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [
        ["name", "commits", "patterns", "dispersion", "prediction"],
        ["carol", "30", "30", "0.000", "human"],
        ["dave", "7", "", "", "unknown"],
        ["release-bot", "50", "1", "0.000", "bot"],
    ]


def test_text_has_a_header_and_one_aligned_row_per_identity(capsys, cli_fixture_repo):
    assert main(["analyze", "--text", str(cli_fixture_repo)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["name", "commits", "patterns", "dispersion", "prediction"],
        ["carol", "30", "30", "0.000", "human"],
        ["dave", "7", "unknown"],
        ["release-bot", "50", "1", "0.000", "bot"],
    ]
    # the prediction column starts at one offset on every line
    assert len({line.rindex(line.split()[-1]) for line in lines}) == 1


# names with lone surrogates (undecodable bytes of a git name), quotes,
# backslashes, control characters and non-ASCII text
_names = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.lists(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
                              "\U0001f600", "\udc80", "\ud800", "a"])).map("".join),
)
_counts = st.one_of(st.none(), st.integers(min_value=0, max_value=10**6))
_commits = st.integers(min_value=0, max_value=10**6)
_dispersions = st.one_of(st.none(), st.floats())
_rows = st.one_of(
    st.builds(
        ResultRow,
        name=_names,
        commits=_commits,
        patterns=_counts,
        dispersion=_dispersions,
        prediction=st.sampled_from(["bot", "human", "unknown"]),
        empties=_counts,
    ),
    st.builds(ResultRow, _names, _commits, st.none(), st.none(), st.just("unknown"), st.none()),
    st.builds(ResultRow, _names, _commits, st.none(), st.none(), st.just("unknown"),
              st.integers(min_value=0, max_value=10**6)),
    st.builds(ResultRow, _names, _commits, st.none(), _dispersions, st.just("bot"), _counts),
)

# format_output renders each distinct tail (the cells after name and
# commits) once per call, so tables also draw many rows from a few tails,
# known and unknown. Their cells come from small pools, so that tails
# near each other are drawn: one NaN object that several tails share,
# distinct NaN objects, which compare unequal, and 0.0 beside -0.0, which
# compare equal but are spelled apart.
_SHARED_NAN = float("nan")
_tail_counts = st.sampled_from([None, 0, 1, 12])
_tails = st.tuples(
    _tail_counts,
    st.one_of(st.sampled_from([None, 0.0, -0.0, 0.0625, 1 / 3, float("inf"), _SHARED_NAN]),
              st.builds(float, st.just("nan")), st.floats()),
    st.sampled_from(["bot", "human", "unknown"]),
    _tail_counts,
)
_UNKNOWN_TAIL = (None, None, "unknown", None)


def _tables(names=_names):
    """Lists of rows: independent rows, or rows that share a few drawn tails."""
    shared = st.lists(st.one_of(st.just(_UNKNOWN_TAIL), _tails), min_size=1, max_size=4).flatmap(
        lambda tails: st.lists(
            st.builds(lambda name, commits, tail: ResultRow(name, commits, *tail),
                      names, _commits, st.sampled_from(tails)),
            max_size=12,
        )
    )
    return st.one_of(st.lists(_rows, max_size=5), shared)


_SIGNED_ZEROS = [ResultRow("a", 1, 1, 0.0, "bot", 1), ResultRow("b", 2, 1, -0.0, "bot", 1)]


def _payload(rows, verbose):
    """The columns, and each row's cells by column, dispersion rounded."""
    columns = ["name", "commits", "empties", "patterns", "dispersion", "prediction"]
    if not verbose:
        columns.remove("empties")
    payload = [
        {c: round(v, 3) if c == "dispersion" and v is not None else v
         for c, v in ((c, getattr(row, c)) for c in columns)}
        for row in rows
    ]
    return columns, payload


def _table(rows, verbose):
    """The header and every row, each cell spelled as CSV and text spell it."""
    columns, payload = _payload(rows, verbose)
    return [columns] + [
        ["" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)
         for v in cells.values()]
        for cells in payload
    ]


def _csv_writer_text(table):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(table)
    return buffer.getvalue()


@settings(max_examples=300)
@given(rows=_tables(), verbose=st.booleans())
@example(rows=_SIGNED_ZEROS, verbose=False)
def test_json_output_is_the_text_of_json_dumps_with_indent(rows, verbose):
    _, payload = _payload(rows, verbose)
    assert format_output(rows, JSON, verbose) == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=300)
@given(rows=_tables(), verbose=st.booleans())
@example(rows=_SIGNED_ZEROS, verbose=False)
def test_csv_and_text_output_spell_every_cell(rows, verbose):
    table = _table(rows, verbose)
    assert format_output(rows, CSV, verbose) == _csv_writer_text(table)
    widths = [max(map(len, column)) for column in zip(*table)]
    text = "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() + "\n"
        for line in table
    )
    assert format_output(rows, TEXT, verbose) == text


# names that csv.writer may quote, which CSV writes through it, and names
# that it leaves alone, which CSV writes as they are: commas, quotes, line
# breaks, leading and trailing spaces, non-ASCII text and lone surrogates
_csv_names = st.tuples(
    st.sampled_from(["", " ", "  "]),
    st.lists(st.sampled_from([",", '"', " ", "\r", "\n", "\u00e9", "\u4e2d", "\U0001f600",
                              "\udc80", "a", "b"])).map("".join),
).map("".join)


@settings(max_examples=300)
@given(rows=_tables(_csv_names), verbose=st.booleans())
def test_csv_rows_are_what_csv_writer_writes(rows, verbose):
    assert format_output(rows, CSV, verbose) == _csv_writer_text(_table(rows, verbose))


def rows_featurizing_every_identity(commits, config, model):
    """`run_analysis`'s rows for one repository's commits, each identity featurized."""
    corpora: dict[str, list[str]] = {}
    for commit in commits:
        corpora.setdefault(commit.name, []).append(commit.message)
    rows = []
    for name, corpus in corpora.items():
        features = compute_features(corpus, config)
        if features is None:
            rows.append(ResultRow(name, len(corpus), None, None, "unknown", None))
        else:
            rows.append(ResultRow(name, len(corpus), features.n_patterns, features.gini,
                                  forest.predict(model, features), features.n_empty))
    return sorted(rows, key=lambda row: row.name)


_limits = st.one_of(st.none(), st.integers(1, 14))


@settings(deadline=None, max_examples=60)
@given(
    commits=st.lists(
        st.builds(RawCommit, st.sampled_from(["ann", "bob", "cy", "dee"]),
                  st.sampled_from(["", "fix typo", "fix typos", "bump version to 1.2",
                                   "bump version to 1.3", "refactor the parser", "merge branch"])),
        max_size=60,
    ),
    min_commits=_limits,
    max_commits=_limits,
)
def test_analysis_rows_equal_featurizing_every_identity(commits, min_commits, max_commits):
    # identities under --min-commits get their unknown row without features
    argv = ["analyze", "repo"]
    for option, value in (("--min-commits", min_commits), ("--max-commits", max_commits)):
        if value is not None:
            argv += [option, str(value)]
    args = cli.build_parser().parse_args(argv)
    model = load_model(cli.SHIPPED_MODEL)
    try:
        config = cli._analysis_config(args, model)
    except UsageError:
        assume(False)  # a minimum above the maximum, given or the model's
    with mock.patch.object(cli, "extract_commits", lambda repo, committer, start_date, log: commits):
        rows = cli.run_analysis(args)
    assert rows == rows_featurizing_every_identity(commits, config, model)


def test_analysis_makes_no_reference_cycles(cli_fixture_repo, tmp_path):
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("carol,Carol\ndave,IGNORE\n", encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["analyze", "--mapping", str(mapping), "--start-date", "2000-01-01", str(cli_fixture_repo)]
    )
    gc.collect()
    gc.disable()
    try:
        rows = cli.run_analysis(args)
        for output_format in (JSON, CSV, TEXT):
            format_output(rows, output_format, verbose=True)
        del rows
        assert gc.collect() == 0  # nothing for the collector that main pauses
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_cycle_collection_only_during_analysis(
    capsys, monkeypatch, cli_fixture_repo, tmp_path, collecting
):
    seen = []
    original_features, original_format = cli.compute_features, cli.format_output

    def recording(corpus, config):
        seen.append(gc.isenabled())
        return original_features(corpus, config)

    def formatting(rows, output_format, verbose):
        seen.append(gc.isenabled())
        return original_format(rows, output_format, verbose)

    monkeypatch.setattr(cli, "compute_features", recording)
    monkeypatch.setattr(cli, "format_output", formatting)
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["analyze", str(cli_fixture_repo)]) == 0
        assert seen and not any(seen)
        assert gc.isenabled() is collecting
        assert main(["analyze", str(tmp_path / "missing")]) == 2  # an error restores it too
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    capsys.readouterr()


def test_only_predicted_drops_unknown_identities(capsys, cli_fixture_repo):
    argv = ["analyze", "--json", "--only-predicted", str(cli_fixture_repo)]
    assert analyze_json(capsys, argv) == {"carol": "human", "release-bot": "bot"}


def test_analyze_predicts_only_contributors_with_features(capsys, monkeypatch, cli_fixture_repo):
    original = forest.predict
    predicted = []

    def predict(model, features):
        predicted.append(features)
        return original(model, features)

    monkeypatch.setattr(forest, "predict", predict)
    predictions = analyze_json(capsys, ["analyze", "--json", str(cli_fixture_repo)])
    assert predictions["dave"] == "unknown"
    assert len(predicted) == 2 == sum(label != "unknown" for label in predictions.values())


def test_include_keeps_only_the_named_identities(capsys, cli_fixture_repo):
    argv = ["analyze", "--json", str(cli_fixture_repo), "--include", "release-bot", "carol"]
    assert analyze_json(capsys, argv) == {"carol": "human", "release-bot": "bot"}


def test_include_ended_by_double_dash_keeps_the_repository(capsys, cli_fixture_repo):
    argv = ["analyze", "--json", "--include", "release-bot", "--", str(cli_fixture_repo)]
    assert analyze_json(capsys, argv) == {"release-bot": "bot"}


@pytest.mark.parametrize("command", [["analyze"], []], ids=["analyze", "implied"])
def test_include_without_names_is_a_usage_error(capsys, cli_fixture_repo, command):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, str(cli_fixture_repo), "--include"])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gitbot analyze ")
    assert "--include" in captured.err


def test_min_commits_above_max_commits_is_a_usage_error(capsys, cli_fixture_repo):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--min-commits", "20", "--max-commits", "10", str(cli_fixture_repo)])
    assert excinfo.value.code == 1
    assert "--min-commits" in capsys.readouterr().err


@pytest.mark.parametrize("options,flag", [
    (["--min-commits", "0"], "--min-commits"),
    (["--max-commits", "0"], "--max-commits"),
    (["--min-commits", "150"], "--min-commits"),  # the shipped model reads at most 100
    (["--max-commits", "5"], "--max-commits"),  # and needs at least 10
])
def test_message_bounds_out_of_range_are_usage_errors(capsys, cli_fixture_repo, options, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", *options, str(cli_fixture_repo)])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    # also for the bounds checked against the model after parsing
    assert captured.err.startswith("usage: gitbot analyze ")


def test_model_with_fractional_message_cap_exits_2(capsys, cli_fixture_repo, tmp_path):
    shipped = Path(cli.SHIPPED_MODEL)
    doc = json.loads(shipped.read_text("utf-8"))
    doc["feature_config"]["max_messages"] = 100.5
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(cli_fixture_repo)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_messages" in captured.err


def test_model_without_trees_exits_2(capsys, cli_fixture_repo, tmp_path):
    shipped = Path(cli.SHIPPED_MODEL)
    doc = json.loads(shipped.read_text("utf-8"))
    doc.update(trees=[], n_estimators=0)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(cli_fixture_repo)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "n_estimators" in captured.err
    assert "Traceback" not in captured.err


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_model_nested_too_deeply_exits_2(capsys, cli_fixture_repo, tmp_path):
    # a left spine of 5,000 splits: json.loads alone would raise RecursionError
    shipped = Path(cli.SHIPPED_MODEL)
    doc = json.loads(shipped.read_text("utf-8"))
    doc["trees"][0] = "TREE"
    split = '{"feature": 0, "threshold": 1.0, "right": {"counts": [0, 1]}, "left": '
    tree = split * 5000 + '{"counts": [1, 0]}' + "}" * 5000
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc).replace('"TREE"', tree), encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(cli_fixture_repo)]) == 2
    assert "nested too deeply" in assert_one_error_line(capsys)


@pytest.mark.parametrize("deep_line", [1, 2], ids=["first line", "later line"])
def test_json_lines_dataset_nested_too_deeply_exits_2(capsys, tmp_path, deep_line):
    records = ['{"name": "a", "repository": "r", "bot": true, "message": "m"}'] * 2
    records[deep_line - 1] = records[0].replace('"a"', "[" * 5000 + "]" * 5000)
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    assert main(["train", str(path), "-o", str(tmp_path / "model.json")]) == 2
    err = assert_one_error_line(capsys)
    assert "recursion" in err
    assert ("line 2:" in err) == (deep_line == 2)
    assert not (tmp_path / "model.json").exists()


def test_model_with_an_integer_too_long_to_read_exits_2(capsys, cli_fixture_repo, tmp_path):
    shipped = Path(cli.SHIPPED_MODEL)
    doc = json.loads(shipped.read_text("utf-8"))
    doc["seed"] = "SEED"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc).replace('"SEED"', "9" * 5000), encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(cli_fixture_repo)]) == 2
    err = assert_one_error_line(capsys)
    assert "not valid JSON" in err
    assert "Exceeds the limit" in err


@pytest.mark.parametrize("long_line", [1, 2], ids=["first line", "later line"])
def test_json_lines_dataset_with_an_integer_too_long_to_read_exits_2(capsys, tmp_path, long_line):
    records = ['{"name": "a", "repository": "r", "bot": true, "message": "m"}'] * 2
    records[long_line - 1] = records[0].replace("true", "9" * 5000)
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    assert main(["train", str(path), "-o", str(tmp_path / "model.json")]) == 2
    err = assert_one_error_line(capsys)
    assert "Exceeds the limit" in err
    assert ("line 2:" if long_line == 2 else "first non-blank line:") in err
    assert not (tmp_path / "model.json").exists()


def analyze_rows(capsys, argv):
    assert main(argv) == 0
    return {row["name"]: row for row in json.loads(capsys.readouterr().out)}


def test_mapping_merges_names_and_ignores_the_ignored(capsys, cli_fixture_repo, tmp_path):
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("name,identity\ndave,carol\nrelease-bot,IGNORE\n", encoding="utf-8")
    rows = analyze_rows(capsys, ["analyze", "--json", "--mapping", str(mapping), str(cli_fixture_repo)])
    assert {name: row["commits"] for name, row in rows.items()} == {"carol": 37}
    assert rows["carol"]["prediction"] == "human"


def analyzed_corpora(capsys, monkeypatch, argv):
    """The corpus of every identity that `analyze` featurizes, in call order."""
    original = cli.compute_features
    corpora = []

    def compute_features(corpus, config):
        corpora.append(corpus)
        return original(corpus, config)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "compute_features", compute_features)
        assert main(argv) == 0
    capsys.readouterr()
    return corpora


def test_mapping_merges_aliases_in_walk_order(capsys, monkeypatch, tmp_path):
    # 10:00 at +05:00 is 05:00Z, an hour before its parent's 06:00Z; the
    # child still comes first, as git log lists it
    repo = init_repo(tmp_path / "aliases")
    add_commit(repo, "alias-utc", "sent at six utc", date="2021-01-01T06:00:00+00:00")
    add_commit(repo, "alias-east", "sent at ten east", date="2021-01-01T10:00:00+05:00")
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("alias-utc,merged\nalias-east,merged\n", encoding="utf-8")
    # --min-commits 1: a corpus is built only for an identity that is featurized
    argv = ["analyze", "--json", "--min-commits", "1", "--mapping", str(mapping), str(repo)]
    assert analyze_rows(capsys, argv).keys() == {"merged"}
    assert analyzed_corpora(capsys, monkeypatch, argv) == [
        ["sent at ten east\n", "sent at six utc\n"]
    ]


def test_merged_and_unmerged_names_keep_the_same_newest_commits(capsys, monkeypatch, tmp_path):
    # author dates out of commit order: "newest" must not depend on whether
    # a name is mapped, so --max-commits keeps the same messages either way
    repo = init_repo(tmp_path / "skewed")
    for message, day in [("m1", "05"), ("m2", "01"), ("m3", "03")]:
        add_commit(repo, "alice", message, date=f"2021-01-{day}T00:00:00+00:00")
    add_commit(repo, "alias", "m4", date="2021-01-04T00:00:00+00:00")
    log = subprocess.run(
        ["git", "-C", str(repo), "log", "--format=%s"], check=True, capture_output=True, text=True
    ).stdout
    in_log_order = [subject + "\n" for subject in log.split()]
    assert in_log_order == ["m4\n", "m3\n", "m2\n", "m1\n"]
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("alice,alice\nalias,alice\n", encoding="utf-8")

    featurized = ["analyze", "--min-commits", "1"]
    merged = analyzed_corpora(capsys, monkeypatch, [*featurized, "--mapping", str(mapping), str(repo)])
    alone = analyzed_corpora(capsys, monkeypatch, [*featurized, str(repo), "--include", "alice"])
    assert merged == [in_log_order]
    assert alone == [[message for message in in_log_order if message != "m4\n"]]


def test_committer_groups_by_committer_name(capsys, cli_fixture_repo):
    # every fixture commit has the committer ci-runner and one of three authors
    rows = analyze_rows(capsys, ["analyze", "--json", "--committer", str(cli_fixture_repo)])
    assert {name: row["commits"] for name, row in rows.items()} == {"ci-runner": 87}


def write_dataset_csv(path, dataset):
    """Write a labeled dataset in the canonical CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["contributor_id", "repository_id", "label", "message"])
        for entry in dataset.entries:
            for message in entry.corpus:
                writer.writerow([entry.contributor, entry.repository, entry.label, message])
    return path


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    """A small labeled dataset in the canonical CSV layout."""
    dataset = synthetic_dataset(n_bots=15, n_humans=15, seed=5, max_messages=20)
    return write_dataset_csv(tmp_path_factory.mktemp("dataset") / "dataset.csv", dataset)


def test_train_writes_a_model_and_reports_it(capsys, monkeypatch, dataset_csv, tmp_path):
    original = cli.train_forest
    trained = []

    def train_forest(*args, **kwargs):
        trained.append(original(*args, **kwargs))
        return trained[-1]

    # the command looks the name up through the module, so this wrapper fires
    monkeypatch.setattr(cli, "train_forest", train_forest)
    output = tmp_path / "model.json"
    argv = ["train", str(dataset_csv), "-o", str(output), "--folds", "3", "--seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["classifier", "family"]
    assert f"model written to {output}" in lines
    model = load_model(output)
    assert [model] == trained
    test_report = out.split(f"model written to {output}\n", 1)[1]
    assert test_report.startswith("model: ForestModel(")


def test_train_on_folds_smaller_than_the_largest_knn_k(capsys, tmp_path):
    # 12 training corpora in 3 folds leave 8 per training fold: knn(k=9) and
    # knn(k=11) of the default grid cannot be fitted and are left out
    dataset = synthetic_dataset(n_bots=10, n_humans=10, max_messages=20)
    path = write_dataset_csv(tmp_path / "dataset.csv", dataset)
    argv = ["train", str(path), "-o", str(tmp_path / "model.json"), "--folds", "3"]
    assert main(argv) == 0
    table = capsys.readouterr().out.split("\nmodel written to ", 1)[0].splitlines()
    families = {FAMILY_FOREST, FAMILY_TREE, FAMILY_KNN, FAMILY_LOGISTIC, FAMILY_SVM}
    assert sorted(line[:24].rstrip() for line in table[1:]) == sorted(families)


@pytest.mark.parametrize("option,value", [
    ("--folds", "0"), ("--folds", "-2"), ("--folds", "1"),
    ("--train-fraction", "1.0"), ("--train-fraction", "0"), ("--train-fraction", "nan"),
    ("--seed", "-1"), ("--min-messages", "0"),
])
def test_train_options_out_of_range_are_usage_errors(capsys, dataset_csv, tmp_path, option, value):
    output = tmp_path / "model.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["train", str(dataset_csv), "-o", str(output), option, value])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}" in captured.err
    assert not output.exists()


def test_train_min_messages_above_the_cap_fails_before_reading(capsys, caplog, dataset_csv, tmp_path):
    output = tmp_path / "model.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["train", str(dataset_csv), "-o", str(output), "--min-messages", "101"])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gitbot train ")
    assert "gitbot train: error: --min-messages (101) must not exceed 100" in captured.err
    assert not caplog.records  # nothing logged: the dataset was not read
    assert not output.exists()


def test_train_featurizes_every_loaded_corpus_once(capsys, monkeypatch, dataset_csv, tmp_path):
    # on one CPU, so that every call is made, and recorded, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    original = dataset.compute_features
    featurized = []

    def compute_features(corpus, config):
        featurized.append(tuple(corpus))
        return original(corpus, config)

    monkeypatch.setattr(dataset, "compute_features", compute_features)
    argv = ["train", str(dataset_csv), "-o", str(tmp_path / "model.json"), "--folds", "3"]
    assert main(argv) == 0
    loaded = [tuple(entry.corpus) for entry in load_dataset(dataset_csv).entries]
    assert featurized == loaded


def test_a_worker_killed_mid_search_ends_train_with_an_error(capsys, monkeypatch, dataset_csv, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    caller, original = os.getpid(), evaluation._fold_metrics

    def killed_in_a_worker(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_fold_metrics", killed_in_a_worker)  # every scorer calls it
    output = tmp_path / "model.json"
    assert main(["train", str(dataset_csv), "-o", str(output), "--folds", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: worker process ")
    assert "killed by signal 9" in captured.err
    assert not output.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker reaped


def test_train_fraction_leaving_no_test_corpus_fails_before_the_grid(capsys, tmp_path):
    path = write_dataset_csv(tmp_path / "dataset.csv", synthetic_dataset(n_bots=36, n_humans=36))
    output = tmp_path / "model.json"
    assert main(["train", str(path), "-o", str(output), "--train-fraction", "0.99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaves the test part empty" in captured.err
    assert not output.exists()


def test_evaluate_without_a_large_enough_corpus_says_so(capsys, tmp_path):
    # every corpus holds 5 to 9 messages, under the shipped model's 10
    dataset = synthetic_dataset(n_bots=2, n_humans=2, min_messages=5, max_messages=9)
    path = write_dataset_csv(tmp_path / "dataset.csv", dataset)
    assert main(["evaluate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no corpus to evaluate" in captured.err


def test_evaluate_scores_the_shipped_or_a_given_model(capsys, dataset_csv):
    shipped = Path(cli.SHIPPED_MODEL)
    model = load_model(shipped)
    X, y = featurize(load_dataset(dataset_csv), model.feature_config)
    expected = format_report(evaluate_pretrained(model, X, y))
    assert main(["evaluate", str(dataset_csv)]) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert main(["evaluate", str(dataset_csv), "--model", str(shipped)]) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_json_lines_dataset_reports_as_its_csv_does(capsys, dataset_csv, tmp_path, command):
    json_lines = tmp_path / "dataset.jsonl"
    with open(dataset_csv, newline="", encoding="utf-8") as source, \
            open(json_lines, "w", encoding="utf-8") as target:
        for contributor, repository, label, message in list(csv.reader(source))[1:]:
            record = {"name": contributor, "repository": repository,
                      "bot": label == "bot", "message": message}
            target.write(json.dumps(record) + "\n")
    model = tmp_path / "model.json"
    options = ["-o", str(model), "--folds", "3"] if command == "train" else []
    runs = []
    for path in (dataset_csv, json_lines):
        assert main([command, str(path), *options]) == 0
        runs.append((capsys.readouterr().out, model.read_bytes() if options else None))
    assert runs[0] == runs[1]


def test_csv_dataset_whose_first_field_is_a_number_too_long_for_json(capsys, dataset_csv, tmp_path):
    # no header, and the first contributor id is 5,000 nines: the first line
    # does not start with "{", so it is read as CSV, never parsed as JSON
    with open(dataset_csv, newline="", encoding="utf-8") as source:
        rows = list(csv.reader(source))[1:]
    first = rows[0][0]
    path = tmp_path / "dataset.csv"
    with open(path, "w", newline="", encoding="utf-8") as target:
        csv.writer(target).writerows([["9" * 5000 if row[0] == first else row[0], *row[1:]]
                                      for row in rows])
    runs = []
    for dataset in (dataset_csv, path):
        assert main(["evaluate", str(dataset)]) == 0
        runs.append(capsys.readouterr())
    assert runs[1] == runs[0]


def test_importing_the_cli_loads_neither_numpy_nor_dataclasses():
    script = "import sys, gitbot.cli; print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_analyze_never_imports_numpy(cli_fixture_repo):
    # runs `gitbot analyze --json REPO` through `main`, which returns, then
    # inspects the interpreter; `python -m gitbot` would end the process first
    script = (
        "import sys\n"
        "from gitbot.cli import main\n"
        "status = main(['analyze', '--json', sys.argv[1]])\n"
        "if status != 0 or 'numpy' in sys.modules:\n"
        "    sys.exit(f'analyze exited {status}, numpy loaded: {\"numpy\" in sys.modules}')\n"
        "print('analyze left numpy unloaded', file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(cli_fixture_repo)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "analyze left numpy unloaded"  # the check ran
    assert {row["name"] for row in json.loads(proc.stdout)} == {"carol", "dave", "release-bot"}


def run_python(script, *argv, timeout=60, flags=()):
    """`python flags... -c script argv...` run to its end, with gitbot's source on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_importing_the_cli_loads_no_analysis_module_and_no_spawn_helper():
    # what only --start-date, --csv, --mapping, the model or git's output
    # needs; a site hook may load some of them at start, so only what the
    # import adds counts
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gitbot.cli\n"
        "deferred = {'subprocess', 'tempfile', 'calendar', 'datetime', 'csv', 'json',\n"
        "            'gitbot.features', 'gitbot.model_io'}\n"
        "print(sorted(deferred & (set(sys.modules) - before)))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_shipped_model_loads_what_a_model_file_loads(cli_fixture_repo):
    # -S: no site hook imports anything before the run, so all it adds counts
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from gitbot import cli\n"
        "model = ['--model', cli.SHIPPED_MODEL] if sys.argv[2] == 'given' else []\n"
        "status = cli.main(['analyze', '--json', *model, sys.argv[1]])\n"
        "print(status, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
    )
    added = []
    for model in ("shipped", "given"):
        proc = run_python(script, cli_fixture_repo, model, flags=["-S"])
        assert proc.returncode == 0, proc.stderr
        status, *modules = proc.stderr.splitlines()[-1].split()
        assert status == "0"
        added.append(modules)
    shipped, given = added
    assert shipped == given
    assert {"importlib.resources", "tempfile", "zipfile", "pathlib"}.isdisjoint(shipped)


def test_analyze_spawns_git_before_it_imports_the_analysis_modules(cli_fixture_repo):
    script = (
        "import os, sys\n"
        "from gitbot.cli import main\n"
        "spawn, loaded = os.posix_spawnp, []\n"
        "def probed(*args, **kwargs):\n"
        "    loaded.append('gitbot.features' in sys.modules)\n"
        "    return spawn(*args, **kwargs)\n"
        "os.posix_spawnp = probed\n"
        "status = main(['analyze', '--json', sys.argv[1]])\n"
        "print(status, loaded, 'gitbot.features' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_python(script, cli_fixture_repo)
    assert proc.returncode == 0, proc.stderr
    # one git, spawned while features was not loaded; loaded by the end
    assert proc.stderr.splitlines()[-1] == "0 [False] True"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_load_no_spawn_helper(dataset_csv, tmp_path, command):
    # numpy 2.4 imports datetime itself, so datetime is probed when
    # featurize starts, before numpy loads
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from gitbot import cli, dataset\n"
        "featurize = dataset.featurize\n"
        "def added(names):\n"
        "    return sorted(set(names) & (set(sys.modules) - before))\n"
        "def probed(*args, **kwargs):\n"
        "    print('before featurize:', added({'datetime', 'numpy'}), file=sys.stderr)\n"
        "    return featurize(*args, **kwargs)\n"
        "dataset.featurize = probed\n"
        "status = cli.main(sys.argv[1:])\n"
        "print('at the end:', status, added({'subprocess', 'calendar'}), file=sys.stderr)\n"
    )
    argv = [command, dataset_csv]
    if command == "train":
        argv += ["-o", tmp_path / "model.json", "--folds", "3"]
    proc = run_python(script, *argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert "before featurize: []" in lines
    assert lines[-1] == "at the end: 0 []"


@pytest.mark.parametrize("model_text,message", [
    (None, "cannot read model file: [Errno 2] No such file or directory: {path!r}"),
    ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
], ids=["missing", "malformed"])
def test_a_model_error_comes_before_the_repositorys(capsys, tmp_path, model_text, message):
    # git of the plain directory has started, and failed, before the model loads
    model = tmp_path / "model.json"
    if model_text is not None:
        model.write_text(model_text, encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=str(model))}\n")


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_an_empty_model_path_is_a_model_error(capsys, cli_fixture_repo, dataset_csv, command):
    # an empty --model names no file; it does not mean the shipped model
    target = cli_fixture_repo if command == "analyze" else dataset_csv
    assert main([command, str(target), "--model", ""]) == 2
    assert "cannot read model file" in assert_one_error_line(capsys)


def test_a_mapping_error_comes_before_the_repositorys(capsys, tmp_path):
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("alice,alice,extra\n", encoding="utf-8")
    assert main(["analyze", "--mapping", str(mapping), str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "error: row 1: expected 2 fields, got 3\n")


def test_no_git_is_left_once_main_returns(cli_fixture_repo, tmp_path):
    # in a child interpreter, so that no other child of the test run is seen
    plain = tmp_path / "plain"
    plain.mkdir()
    model = tmp_path / "model.json"
    model.write_text("{", encoding="utf-8")
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("alice,alice,extra\n", encoding="utf-8")
    script = (
        "import os, sys\n"
        "from gitbot.cli import main\n"
        "repo, plain, model, mapping = sys.argv[1:]\n"
        "for argv in (['--json', repo], ['--model', model, repo], ['--mapping', mapping, repo],\n"
        "             ['--min-commits', '50', '--max-commits', '5', repo], [plain]):\n"
        "    try:\n"
        "        status = main(['analyze', *argv])\n"
        "    except SystemExit as exc:  # a usage error\n"
        "        status = exc.code\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "        left = 'a child left'\n"
        "    except ChildProcessError:\n"
        "        left = 'no child left'\n"
        "    print('status', status, left, file=sys.stderr)\n"
    )
    proc = run_python(script, cli_fixture_repo, plain, model, mapping)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("status ")] == [
        "status 0 no child left",
        "status 2 no child left",
        "status 2 no child left",
        "status 1 no child left",
        "status 2 no child left",
    ]


def test_train_loads_neither_dataclasses_nor_numpy_ma(dataset_csv, tmp_path):
    # runs `gitbot train` through `main` on one CPU, so that every fit runs in
    # this interpreter, then inspects it; np.unique would load numpy.ma (about
    # 40 ms), and an executor multiprocessing and concurrent.futures (about 9 ms)
    script = (
        "import os, sys\n"
        "from gitbot.cli import main\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "status = main(['train', *sys.argv[1:]])\n"
        "loaded = sorted({'dataclasses', 'numpy.ma', 'multiprocessing', 'concurrent.futures'}\n"
        "                & set(sys.modules))\n"
        "if status != 0 or loaded:\n"
        "    sys.exit(f'train exited {status} and imported {loaded}')\n"
        "print('train left them unloaded', file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [str(dataset_csv), "-o", str(tmp_path / "model.json"), "--folds", "3"]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "train left them unloaded"  # the check ran
    assert "model written to" in proc.stdout


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_numpy_and_evaluation_load_only_once_featurize_runs(dataset_csv, tmp_path, command):
    # featurize imports numpy once its workers have started, so that they
    # compute features meanwhile; nothing may have loaded it before
    script = (
        "import sys\n"
        "from gitbot import cli, dataset\n"
        "featurize = dataset.featurize\n"
        "def probed(*args, **kwargs):\n"
        "    loaded = {'numpy', 'gitbot.evaluation', 'gitbot.training'} & set(sys.modules)\n"
        "    print('loaded before featurize:', sorted(loaded), file=sys.stderr)\n"
        "    return featurize(*args, **kwargs)\n"
        "dataset.featurize = probed\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [command, str(dataset_csv)]
    if command == "train":
        argv += ["-o", str(tmp_path / "model.json"), "--folds", "3"]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "loaded before featurize: []" in proc.stderr.splitlines()
    assert "confusion: tp=" in proc.stdout


# Names that git holds as bytes that are not UTF-8: the extractor reads
# them with surrogateescape, so b"Bad\xffName" is the name "Bad\udcffName".
BAD_NAME = b"Bad\xffName"
ALIAS_NAME = b"B\xe4d"  # Latin-1 "Bäd": 0xe4 alone is not UTF-8 either


@pytest.fixture(scope="session")
def byte_named_repo(tmp_path_factory):
    """A repository made by `git fast-import`, whose authors git holds as raw bytes.

    Bad\\xffName: 12 commits; B\\xe4d: 3; IGNORE: 11; alice: 4. mapping.csv
    merges B\\xe4d into Bad\\xffName and maps IGNORE to IGNORE.
    """
    root = tmp_path_factory.mktemp("byte_names")
    repo = init_repo(root / "repo")
    authors = [BAD_NAME] * 12 + [ALIAS_NAME] * 3 + [b"IGNORE"] * 11 + [b"alice"] * 4
    stream = b"".join(
        b"commit refs/heads/main\n"
        + b"author %s <a@example.com> %d +0000\n" % (name, 1_600_000_000 + i)
        + b"committer ci <ci@example.com> %d +0000\n" % (1_600_000_000 + i)
        + b"data %d\n%s\n" % (len(message), message)
        for i, (name, message) in enumerate(zip(authors, map(str.encode, CAROL_MESSAGES)))
    )
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"], input=stream, check=True,
                   capture_output=True)
    (root / "mapping.csv").write_bytes(ALIAS_NAME + b"," + BAD_NAME + b"\nIGNORE,IGNORE\n")
    return repo


def analyze_bytes(*args):
    """stdout bytes of `python -m gitbot analyze ARGS` on a strict UTF-8 stdout; it must exit 0."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gitbot", "analyze", *map(os.fsencode, args)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("output_format", ["--csv", "--text"])
def test_csv_and_text_write_a_name_as_gits_bytes(byte_named_repo, output_format):
    out = analyze_bytes(output_format, byte_named_repo)
    # the header and four authors in name order: "\udcff" and "\udce4" sort after "a"
    _, bad, alias, *others = out.splitlines()
    separator = b"," if output_format == "--csv" else b" "
    assert [line.split(separator)[0] for line in [bad, alias, *others]] == [
        BAD_NAME, ALIAS_NAME, b"IGNORE", b"alice"]
    assert bad.replace(b",", b" ").split()[:2] == [BAD_NAME, b"12"]


def test_json_escapes_a_name_that_a_mapping_merges(byte_named_repo):
    # the mapping also drops IGNORE, which it lists
    mapping = byte_named_repo.parent / "mapping.csv"
    out = analyze_bytes("--json", "--mapping", mapping, byte_named_repo)
    assert b'"name": "Bad\\udcffName",' in out
    rows = {row["name"]: row["commits"] for row in json.loads(out)}
    assert rows == {"Bad\udcffName": 15, "alice": 4}


def test_include_selects_a_name_by_gits_bytes(byte_named_repo):
    out = analyze_bytes("--text", "--include", BAD_NAME, "--", byte_named_repo)
    assert [line.split()[:2] for line in out.splitlines()[1:]] == [[BAD_NAME, b"12"]]


def test_a_contributor_named_ignore_is_kept_unless_the_mapping_lists_it(byte_named_repo, tmp_path):
    out = analyze_bytes("--json", byte_named_repo)
    assert {row["name"]: row["commits"] for row in json.loads(out)}["IGNORE"] == 11
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("alice,IGNORE\n", encoding="utf-8")
    out = analyze_bytes("--json", "--mapping", mapping, byte_named_repo)
    assert {row["name"] for row in json.loads(out)} == {"Bad\udcffName", "B\udce4d", "IGNORE"}
