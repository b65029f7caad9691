"""Correctness checks on one gitbot invocation's output.

Each check returns a list of problems; an empty list means correct.
The checks use two sources the program cannot influence: what the
generator knows (`expected.json`) and, for the seeds listed in
`reference.json`, outputs frozen from the seed commit of this
repository.
"""

import hashlib
import json

UNKNOWN = "unknown"
FAMILIES = {
    "random forest",
    "decision tree",
    "k-nearest neighbours",
    "logistic regression",
    "support vector machine",
}
MODEL_LINE = "model written to "


def analyze_projection(rows: list[dict]) -> dict[str, list]:
    """What the reference freezes: patterns, dispersion and prediction per predicted row."""
    return {
        row["name"]: [row["patterns"], row["dispersion"], row["prediction"]]
        for row in rows
        if row["prediction"] != UNKNOWN
    }


def check_analyze(stdout: bytes, expected: dict, min_messages: int, reference: dict | None) -> list[str]:
    """Rows of `analyze --json --verbose` against the generator and the reference."""
    try:
        rows = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    columns = {"name", "commits", "empties", "patterns", "dispersion", "prediction"}
    if not isinstance(rows, list) or not all(isinstance(r, dict) and columns <= r.keys() for r in rows):
        return [f"output is not a list of rows with the columns {sorted(columns)}"]
    problems = []
    by_name = {row["name"]: row for row in rows}
    want = expected["rows"]
    for name in expected["ignored"]:
        if name in by_name:
            problems.append(f"{name}: mapped to IGNORE but reported")
    for name in sorted(set(want) - set(by_name)):
        problems.append(f"{name}: missing")
    for name in sorted(set(by_name) - set(want) - set(expected["ignored"])):
        problems.append(f"{name}: not in the repository")
    for name in sorted(set(want) & set(by_name)):
        row, known = by_name[name], want[name]
        if row["commits"] != known["commits"]:
            problems.append(f"{name}: {row['commits']} commits, expected {known['commits']}")
        if known["commits"] < min_messages:
            if row["prediction"] != UNKNOWN or row["patterns"] is not None:
                problems.append(f"{name}: {known['commits']} commits must give unknown")
        elif row["prediction"] == UNKNOWN:
            problems.append(f"{name}: {known['commits']} commits must give a prediction")
        elif row["empties"] != known["empties"]:
            problems.append(f"{name}: {row['empties']} empties, expected {known['empties']}")
    if reference is not None:
        got = analyze_projection(rows)
        for name in sorted(set(reference) | set(got)):
            if got.get(name) != reference.get(name):
                problems.append(f"{name}: {got.get(name)} differs from reference {reference.get(name)}")
    return problems


def split_train_output(stdout: str) -> tuple[list[str], str]:
    """The grid table's lines and the evaluation report after the model line."""
    lines = stdout.splitlines()
    marker = next((i for i, line in enumerate(lines) if line.startswith(MODEL_LINE)), None)
    if marker is None:
        return lines, ""
    return lines[:marker], "\n".join(lines[marker + 1:]) + "\n"


def check_grid_table(table: list[str]) -> list[str]:
    """Structure only: a header and one row per family, seven values in [0, 1]."""
    if len(table) != 1 + len(FAMILIES):
        return [f"grid table has {len(table)} lines, expected {1 + len(FAMILIES)}"]
    problems = []
    families = set()
    for line in table[1:]:
        families.add(line[:24].strip())  # the family column is 24 wide
        try:
            values = [float(v) for v in line[24:].split()]
        except ValueError:
            problems.append(f"grid row is not numeric: {line!r}")
            continue
        if len(values) != 7 or not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"grid row needs seven values in [0, 1]: {line!r}")
    if families != FAMILIES:
        problems.append(f"grid families {sorted(families)}")
    return problems


def check_train(stdout: bytes, model: bytes | None, reference: dict | None) -> list[str]:
    """`train` output: grid table structure, model bytes and report against the reference."""
    table, report = split_train_output(stdout.decode("utf-8", "replace"))
    problems = check_grid_table(table)
    if not report.startswith("model: "):
        problems.append("no evaluation report after the model line")
    if model is None:
        problems.append("no model file written")
    if reference is not None:
        if model is not None and hashlib.sha256(model).hexdigest() != reference["model_sha256"]:
            problems.append("model bytes differ from reference")
        if report != reference["report"]:
            problems.append("evaluation report differs from reference")
    return problems


def train_projection(stdout: bytes, model: bytes) -> dict:
    return {
        "model_sha256": hashlib.sha256(model).hexdigest(),
        "report": split_train_output(stdout.decode("utf-8"))[1],
    }
