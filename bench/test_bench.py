"""Tests of the benchmark itself: input determinism, the correctness check, tracer cleanup.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import os
from pathlib import Path

import pytest

import check
import gen
import tracer

BENCH = Path(__file__).resolve().parent
PINNED_HEAD = "259792d854c8b0982748066e76537e058a0b7836"  # analyze-mixed, seed 0, generator version 1


def _env(tmp_path):
    return {"PATH": os.environ["PATH"], "HOME": str(tmp_path), "GIT_CONFIG_NOSYSTEM": "1"}


def test_same_seed_same_head(tmp_path):
    env = _env(tmp_path)
    first = gen.generate("analyze-mixed", 5, tmp_path / "a", env)
    second = gen.generate("analyze-mixed", 5, tmp_path / "b", env)
    other = gen.generate("analyze-mixed", 6, tmp_path / "c", env)
    assert first == second
    assert first["head"] != other["head"]


def test_generator_output_is_pinned(tmp_path):
    # a generator change must bump GENERATOR_VERSION and refreeze reference.json
    assert gen.GENERATOR_VERSION == 1
    expected = gen.generate("analyze-mixed", 0, tmp_path, _env(tmp_path))
    assert expected["head"] == PINNED_HEAD


def _rows(expected: dict, reference: dict) -> list[dict]:
    """The rows a correct program prints, from the generator and the reference."""
    rows = []
    for name, known in sorted(expected["rows"].items()):
        if name in reference:
            patterns, dispersion, prediction = reference[name]
            empties = known["empties"]
        else:
            patterns = dispersion = empties = None
            prediction = check.UNKNOWN
        rows.append({"name": name, "commits": known["commits"], "empties": empties,
                     "patterns": patterns, "dispersion": dispersion, "prediction": prediction})
    return rows


def test_check_flags_one_changed_patterns_value(tmp_path):
    expected = gen.generate("analyze-mixed", 0, tmp_path, _env(tmp_path))
    reference = json.loads((BENCH / "reference.json").read_text())["analyze-mixed"]["0"]
    rows = _rows(expected, reference)
    assert check.check_analyze(json.dumps(rows).encode(), expected, 10, reference) == []

    changed = next(row for row in rows if row["patterns"] is not None)
    changed["patterns"] += 1
    problems = check.check_analyze(json.dumps(rows).encode(), expected, 10, reference)
    assert len(problems) == 1 and problems[0].startswith(changed["name"])


def test_check_flags_generator_facts_without_reference(tmp_path):
    expected = gen.generate("analyze-mixed", 0, tmp_path, _env(tmp_path))
    reference = json.loads((BENCH / "reference.json").read_text())["analyze-mixed"]["0"]
    rows = _rows(expected, reference)
    rows[0]["commits"] += 1
    rows.pop()
    problems = check.check_analyze(json.dumps(rows).encode(), expected, 10, None)
    assert len(problems) == 2


def test_check_flags_model_with_one_flipped_byte():
    model = (BENCH / "model.json").read_bytes()
    table = [
        "classifier family          P(B)   R(B)   P(H)   R(H)      P      R     F1",
        *(f"{family:<24} 1.000  1.000  1.000  1.000  1.000  1.000  1.000"
          for family in sorted(check.FAMILIES)),
    ]
    stdout = "\n".join([*table, "model written to m.json", "model: ForestModel()", ""]).encode()
    reference = check.train_projection(stdout, model)
    assert check.check_train(stdout, model, reference) == []

    flipped = bytearray(model)
    flipped[len(flipped) // 2] ^= 0x01
    assert check.check_train(stdout, bytes(flipped), reference) == ["model bytes differ from reference"]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    targets = [(m, a) for m, a, _, _ in tracer.SPANS] + [(m, a) for m, a, _ in tracer.COUNTED]
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    repo = gen.setup_repository(tmp_path, _env(tmp_path))

    run = tracer.run_traced(["analyze", "--json", "--model", str(BENCH / "model.json"), str(repo)])

    assert run["exit"] == 0 and json.loads(run["stdout"])[0]["name"] == "Solo Dev"
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"
    metrics = tracer.layer_metrics(run)
    top_level = metrics["cli.run_analysis.s"] + metrics["cli.format_output.s"]
    assert abs(top_level + metrics["cli.unattributed_s"] - metrics["cli.main.s"]) < 1e-9


def test_traced_run_restores_after_the_command_raises(tmp_path, monkeypatch):
    from gitbot import cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_analysis", broken)
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.SPANS}
    with pytest.raises(RuntimeError):
        tracer.run_traced(["analyze", str(tmp_path)])
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_layer_metrics_self_time_tail_and_unattributed():
    spans = [("cli.run_analysis", 0.0, 10.0, None)]
    for i in range(1, 101):  # compute_features calls of 1..100 ms, each clustering for half
        spans.append(("features.compute_features", 0.0, i / 1000, 0))
        spans.append(("features.cluster_patterns", 0.0, i / 2000, len(spans) - 1))
    run = {"spans": spans, "counters": {}, "wall": 12.0}

    m = tracer.layer_metrics(run)

    assert m["cli.unattributed_s"] == 2.0
    assert abs(m["features.compute_features.self_s"] - 5.05 / 2) < 1e-9
    assert m["features.compute_features.p50_ms"] == 50.0
    assert (m["features.compute_features.tail_pct"], m["features.compute_features.tail_ms"]) == (90, 90.0)


def test_check_reports_malformed_rows_instead_of_raising(tmp_path):
    expected = gen.generate("analyze-mixed", 0, tmp_path, _env(tmp_path))
    for stdout in (b"not json", b'{"name": "x"}', b'[{"name": "x"}]'):
        assert len(check.check_analyze(stdout, expected, 10, None)) == 1
