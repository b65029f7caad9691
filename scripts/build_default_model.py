#!/usr/bin/env python3
"""Regenerate the shipped default model.

Trains the retained configuration (entropy criterion, 20 trees, depth
8) on a deterministic synthetic corpus, evaluates it on the held-out
part, and writes src/gitbot/data/default_model.json, or the path given
to main(output). Rerunning always yields the same bytes, which
tests/test_model_io.py checks.
"""

from pathlib import Path

from gitbot.dataset import featurize
from gitbot.evaluation import evaluate_pretrained, format_report, stratified_split
from gitbot.model_io import save_model
from gitbot.synthesis import synthetic_dataset
from gitbot.training import train_forest

SEED = 2020
OUTPUT = Path(__file__).resolve().parent.parent / "src" / "gitbot" / "data" / "default_model.json"


def main(output=OUTPUT):
    X, y = featurize(synthetic_dataset(n_bots=300, n_humans=300, seed=SEED))
    train_idx, test_idx = stratified_split(y, 0.6, seed=SEED)
    model = train_forest(X[train_idx], y[train_idx], n_estimators=20, max_depth=8, seed=SEED)
    save_model(model, output)
    print(f"model written to {output}")
    print(format_report(evaluate_pretrained(model, X[test_idx], y[test_idx])))


if __name__ == "__main__":
    main()
