import csv
import io
import json
from importlib import resources

import pytest

from gitbot.cli import main


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


def test_only_predicted_drops_unknown_identities(capsys, cli_fixture_repo):
    argv = ["analyze", "--json", "--only-predicted", str(cli_fixture_repo)]
    assert analyze_json(capsys, argv) == {"carol": "human", "release-bot": "bot"}


def test_include_keeps_only_the_named_identities(capsys, cli_fixture_repo):
    argv = ["analyze", "--json", str(cli_fixture_repo), "--include", "release-bot", "carol"]
    assert analyze_json(capsys, argv) == {"carol": "human", "release-bot": "bot"}


def test_min_commits_above_max_commits_is_a_usage_error(capsys, cli_fixture_repo):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--min-commits", "20", "--max-commits", "10", str(cli_fixture_repo)])
    assert excinfo.value.code == 1
    assert "--min-commits" in capsys.readouterr().err


def test_model_with_fractional_message_cap_exits_2(capsys, cli_fixture_repo, tmp_path):
    shipped = resources.files("gitbot").joinpath("data/default_model.json")
    doc = json.loads(shipped.read_text("utf-8"))
    doc["feature_config"]["max_messages"] = 100.5
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--model", str(model), str(cli_fixture_repo)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_messages" in captured.err
