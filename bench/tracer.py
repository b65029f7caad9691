"""Outside-in tracer: times gitbot's public functions from outside `src/`.

`run_traced(argv)` runs `gitbot.cli.main(argv)` in this process with
every traced function replaced, at the name its caller looks up, by a
wrapper that records a span (name, start, end, parent) and feeds the
counters below. Warnings are captured for the baselines' failure
counts. The originals are put back before `run_traced` returns, also
when the command raises.

Run as a script, it traces one command and writes the result as JSON:

    PYTHONPATH=src python3 bench/tracer.py OUT.json -- analyze --json REPO
"""

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import warnings
from collections import Counter, defaultdict


def _extracted(counters, args, kwargs, commits):
    counters["extractor.commits"] += len(commits)
    counters["extractor.message_bytes"] += sum(
        len(c.message.encode("utf-8", "surrogateescape")) for c in commits
    )


def _grouped(counters, args, kwargs, groups):
    counters["extractor.names"] += len(groups)


def _mapped(counters, args, kwargs, merged):
    groups, mapping = args
    ignored = sum(1 for name in groups if mapping.resolve(name) == "IGNORE")
    counters["identity.identities"] += len(merged)
    counters["identity.names_ignored"] += ignored
    counters["identity.names_merged"] += len(groups) - ignored - len(merged)


def _featured(counters, args, kwargs, vector):
    counters["features.predicted"] += vector is not None


def _clustered(counters, args, kwargs, assignment):
    messages = args[0]
    n = len(messages)
    counters["features.messages_clustered"] += n
    counters["features.distinct_messages"] += len(set(messages))
    counters["features.pairs_considered"] += n * (n - 1) // 2
    counters["features.patterns"] += len(assignment.sizes)


def _loaded_dataset(counters, args, kwargs, dataset):
    counters["dataset.rows"] += sum(len(entry.corpus) for entry in dataset.entries)
    counters["dataset.corpora"] += len(dataset.entries)
    counters["dataset.excluded"] += dataset.n_excluded


def _forest(counters, args, kwargs, model):
    counters["forest.trees"] += len(model.trees)


def _model_read(counters, args, kwargs, model):
    counters["model_io.model_bytes"] += os.path.getsize(args[0])


def _model_written(counters, args, kwargs, result):
    counters["model_io.model_bytes"] += os.path.getsize(args[1])


# (module the caller looks the name up in, attribute, span name, observer)
SPANS = [
    ("gitbot.cli", "run_analysis", "cli.run_analysis", None),
    ("gitbot.cli", "format_output", "cli.format_output", None),
    ("gitbot.cli", "extract_commits", "extractor.extract_commits", _extracted),
    ("gitbot.cli", "group_messages", "extractor.group_messages", _grouped),
    ("gitbot.cli", "load_mapping", "identity.load_mapping", None),
    ("gitbot.cli", "apply_mapping", "identity.apply_mapping", _mapped),
    ("gitbot.cli", "compute_features", "features.compute_features", _featured),
    ("gitbot.dataset", "compute_features", "features.compute_features", _featured),
    ("gitbot.evaluation", "compute_features", "features.compute_features", _featured),
    ("gitbot.features", "cluster_patterns", "features.cluster_patterns", _clustered),
    ("gitbot.features", "gini_coefficient", "features.gini_coefficient", None),
    ("gitbot.cli", "load_dataset", "dataset.load_dataset", _loaded_dataset),
    ("gitbot.cli", "featurize", "dataset.featurize", None),
    ("gitbot.cli", "cross_validate", "evaluation.cross_validate", None),
    ("gitbot.evaluation", "stratified_split", "evaluation.stratified_split", None),
    ("gitbot.cli", "evaluate_pretrained", "evaluation.evaluate_pretrained", None),
    ("gitbot.evaluation", "train_config", "evaluation.train_config", None),
    ("gitbot.evaluation", "train_single_tree", "baselines.train_single_tree", None),
    ("gitbot.evaluation", "train_knn", "baselines.train_knn", None),
    ("gitbot.evaluation", "train_logistic", "baselines.train_logistic", None),
    ("gitbot.evaluation", "train_linear_svm", "baselines.train_linear_svm", None),
    ("gitbot.cli", "train_forest", "forest.train_forest", _forest),
    ("gitbot.evaluation", "train_forest", "forest.train_forest", _forest),
    ("gitbot.forest", "predict", "forest.predict", None),
    ("gitbot.cli", "load_model", "model_io.load_model", _model_read),
    ("gitbot.cli", "save_model", "model_io.save_model", _model_written),
]

# called once per message pair: counted, not timed
COUNTED = [("gitbot.similarity", "compound_similarity", "similarity.compound_similarity.calls")]


class Tracer:
    """Spans and counters of one traced command; knows how to undo its wrapping."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _replace(self, module_name, attr, wrapper_for):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._replaced.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper_for(original)))

    def span(self, module_name, attr, name, observe=None):
        def wrapper_for(original):
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else None
                self.spans.append((name, 0.0, 0.0, parent))
                self._open.append(index)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._open.pop()
                    self.spans[index] = (name, start, end, parent)
                if observe is not None:
                    observe(self.counters, args, kwargs, result)
                return result

            return traced

        self._replace(module_name, attr, wrapper_for)

    def count(self, module_name, attr, counter):
        def wrapper_for(original):
            def counted(*args, **kwargs):
                self.counters[counter] += 1
                return original(*args, **kwargs)

            return counted

        self._replace(module_name, attr, wrapper_for)

    def restore(self):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)


def run_traced(argv: list[str]) -> dict:
    """Run one gitbot command traced; return exit code, stdout, wall time, spans, counters."""
    from gitbot import cli

    tracer = Tracer()
    stdout = io.StringIO()
    try:
        for module_name, attr, name, observe in SPANS:
            tracer.span(module_name, attr, name, observe)
        for module_name, attr, counter in COUNTED:
            tracer.count(module_name, attr, counter)
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
            warnings.simplefilter("always")
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        tracer.restore()
    for w in caught:
        if os.path.basename(w.filename) == "baselines.py":
            if issubclass(w.category, RuntimeWarning):
                tracer.counters["baselines.overflow_warnings"] += 1
            elif issubclass(w.category, UserWarning):
                tracer.counters["baselines.nonconverged"] += 1
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "wall": wall,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
    }


def _percentile_ms(sorted_s: list[float], permille: int) -> float:
    """Nearest-rank percentile of sorted seconds, in milliseconds."""
    if not sorted_s:
        return 0.0
    rank = max(1, -(-len(sorted_s) * permille // 1000))
    return 1000.0 * sorted_s[rank - 1]


def layer_metrics(run: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named `<module>.<function>.<measure>`."""
    spans, counters, wall = run["spans"], run["counters"], run["wall"]
    durations: dict[str, list[float]] = defaultdict(list)
    covered_by_children = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent in spans:
        durations[name].append(end - start)
        if parent is None:
            top_level += end - start
        else:
            covered_by_children[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, covered_by_children):
        self_s[name] += end - start - covered

    m: dict[str, float] = {f"{name}.s": 0.0 for _, _, name, _ in SPANS}
    m.update({f"{name}.s": sum(d) for name, d in durations.items()})
    m.update({f"{name}.calls": len(durations[name]) for _, _, name, _ in SPANS})
    m.update({name: counters.get(name, 0) for name in _COUNTERS})
    m["cli.main.s"] = wall
    m["cli.unattributed_s"] = wall - top_level

    def per_s(work: str, seconds: str) -> float:
        return m[work] / m[seconds] if m[seconds] else 0.0

    m["extractor.commits_per_s"] = per_s("extractor.commits", "extractor.extract_commits.s")
    m["features.pairs_per_s"] = per_s("features.pairs_considered", "features.cluster_patterns.s")
    m["evaluation.fits"] = m["evaluation.train_config.calls"]
    m["evaluation.fits_per_s"] = per_s("evaluation.fits", "evaluation.cross_validate.s")

    calls = sorted(durations["features.compute_features"])
    m["features.compute_features.self_s"] = self_s["features.compute_features"]
    m["features.compute_features.p50_ms"] = _percentile_ms(calls, 500)
    # the highest percentile with at least ten samples beyond it (p50 below 20 calls)
    tail = max([p for p in (500, 900, 990, 999) if len(calls) * (1000 - p) >= 10_000], default=500)
    m["features.compute_features.tail_pct"] = tail / 10
    m["features.compute_features.tail_ms"] = _percentile_ms(calls, tail)
    n_calls = m["features.compute_features.calls"]
    m["features.predicted_frac"] = counters.get("features.predicted", 0) / n_calls if n_calls else 0.0
    pairs = m["similarity.compound_similarity.calls"]
    merges = m["features.messages_clustered"] - m["features.patterns"]
    m["features.merge_yield"] = merges / pairs if pairs else 0.0
    return m


_COUNTERS = [
    "extractor.commits", "extractor.message_bytes", "extractor.names",
    "identity.identities", "identity.names_merged", "identity.names_ignored",
    "features.messages_clustered", "features.distinct_messages",
    "features.pairs_considered", "features.patterns",
    "similarity.compound_similarity.calls",
    "dataset.rows", "dataset.corpora", "dataset.excluded",
    "baselines.nonconverged", "baselines.overflow_warnings",
    "forest.trees", "model_io.model_bytes",
]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- GITBOT-ARGS...", file=sys.stderr)
        return 1
    out_path, gitbot_argv = argv[0], argv[2:]
    run = run_traced(gitbot_argv)
    sys.stdout.write(run["stdout"])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": run["exit"], "metrics": layer_metrics(run), "spans": run["spans"]}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
