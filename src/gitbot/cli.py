"""Command-line front-end: analyze repositories, train, evaluate.

`gitbot REPOSITORY [...]` analyzes repositories with the shipped model
(analyze is the implied subcommand). Result rows go to stdout in text,
CSV, or JSON; errors go to stderr. Exit codes: 0 success, 1 usage
error, 2 analysis/training error.

Names are written as git gave them: CSV and text write their bytes,
even bytes that are not UTF-8, which JSON escapes as \\udcXX.
"""

import argparse
import csv
import gc
import importlib
import io
import json
import sys
from datetime import date
from importlib import resources
from json.encoder import encode_basestring_ascii
from math import copysign
from operator import itemgetter
from typing import NamedTuple

from . import forest
from .errors import GitbotError, UsageError
from .extractor import Role, extract_commits, group_messages
from .features import FeatureConfig, compute_features
from .forest import ForestModel
from .identity import IdentityMapping, apply_mapping, load_mapping
from .model_io import load_model, model_from_json, save_model

TEXT, CSV, JSON = "text", "csv", "json"
UNKNOWN = "unknown"  # the prediction of a contributor too small for features

# The module docstring is the --help text, so the split is told here:
# `analyze` runs without numpy, while evaluation and training load it and
# are imported only when `train` or `evaluate` runs. No command loads
# `dataclasses`: every record in the package is a NamedTuple. Training
# forks its workers through `parallel.run_tasks`, which loads neither
# `multiprocessing` nor `concurrent.futures`.
# Attribute -> module of the names those commands call through this module.
_TRAINING_NAMES = {
    "load_dataset": "dataset",
    "featurize": "dataset",
    "cross_validate": "evaluation",
    "evaluate_pretrained": "evaluation",
    "train_forest": "training",
}


def __getattr__(name):
    """Import a training name on first use; it stays an attribute of this module.

    `run_train` and `run_evaluate` look these names up through the module
    at call time, so a wrapper set on one still fires. No other name is
    answered: the import system probes names such as __path__.
    """
    if name not in _TRAINING_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_TRAINING_NAMES[name]}", __package__), name)


class ResultRow(NamedTuple):
    name: str
    commits: int
    patterns: int | None
    dispersion: float | None
    prediction: str
    empties: int | None = None  # shown only with --verbose


def load_default_model() -> ForestModel:
    text = resources.files("gitbot").joinpath("data/default_model.json").read_text("utf-8")
    return model_from_json(text)


def _analysis_config(args, model: ForestModel) -> FeatureConfig:
    """The model's feature configuration with --min-commits and --max-commits applied."""
    base = model.feature_config
    low, high = base.min_messages, base.max_messages
    low_name, high_name = "the model's minimum", "the model's maximum"
    if args.min_commits is not None:
        low, low_name = args.min_commits, "--min-commits"
    if args.max_commits is not None:
        high, high_name = args.max_commits, "--max-commits"
    if low > high:
        raise UsageError(f"{low_name} ({low}) must not exceed {high_name} ({high})")
    return FeatureConfig(
        min_messages=low, max_messages=high, distance_threshold=base.distance_threshold
    )


def run_analysis(args) -> list[ResultRow]:
    """Analyze every repository and return rows sorted by name.

    args holds the parsed `analyze` options. When --min-commits or
    --max-commits is not given, the model's training-time value is used.
    Any extraction, mapping, or model error aborts the run and carries
    the offending repository's path in its message.
    """
    if args.model_path is not None:
        model = load_model(args.model_path)
    else:
        model = load_default_model()
    config = _analysis_config(args, model)
    role = Role.COMMITTER if args.committer else Role.AUTHOR
    mapping = IdentityMapping()
    if args.mapping is not None:
        mapping = load_mapping(args.mapping)

    rows = []
    for repo in args.repositories:
        try:
            commits = extract_commits(repo, role=role, start_date=args.start_date)
            groups = group_messages(commits)
            if args.include is not None:
                wanted = set(args.include)
                groups = {name: p for name, p in groups.items() if name in wanted}
            groups = apply_mapping(groups, mapping)
        except GitbotError as exc:
            raise type(exc)(f"{repo}: {exc}") from exc
        for name, positions in groups.items():
            if len(positions) < config.min_messages:
                # the test `compute_features` makes first, without the corpus
                rows.append(ResultRow(name, len(positions), None, None, UNKNOWN, None))
                continue
            features = compute_features([commits[p].message for p in positions], config)
            rows.append(
                ResultRow(
                    name=name,
                    commits=len(positions),
                    patterns=features.n_patterns,
                    dispersion=features.gini,
                    prediction=forest.predict(model, features),
                    empties=features.n_empty,
                )
            )
    if args.only_predicted:
        rows = [row for row in rows if row.prediction != UNKNOWN]
    rows.sort(key=itemgetter(0))
    return rows


def _columns(verbose: bool) -> list[str]:
    if verbose:
        return ["name", "commits", "empties", "patterns", "dispersion", "prediction"]
    return ["name", "commits", "patterns", "dispersion", "prediction"]


def _tail_cell(row: ResultRow, column: str) -> object:
    """A cell after name and commits, as JSON holds it: dispersion rounded."""
    value = getattr(row, column)
    if column == "dispersion" and value is not None:
        return round(value, 3)
    return value


def _text_cell(value: object) -> str:
    """A tail cell as CSV and text spell it."""
    if value is None:
        return ""
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def format_output(rows: list[ResultRow], output_format: str, verbose: bool = False) -> str:
    """Render rows as aligned text, CSV (header + rows), or a JSON array.

    Every row is its name and commits followed by its tail, the text of
    its other cells. The tail depends only on row[2:], so each distinct
    one is rendered once per call and every row looks its tail up. On
    analyze-history, 19,843 of 19,845 rows share one tail.
    """
    columns = _columns(verbose)
    # 0.0 == -0.0, yet they are spelled apart: a dispersion's sign is keyed too
    shapes = [row[2:] if row[3] is None else (row[2:], copysign(1.0, row[3])) for row in rows]
    # one row per distinct tail, picked without rendering any row
    tail_cells = {shape: [_tail_cell(row, c) for c in columns[2:]]
                  for shape, row in dict(zip(shapes, rows)).items()}
    if output_format == JSON:
        # The text of `json.dumps(payload, indent=2)`, laid out here: with
        # `indent` set, json falls back to its pure-Python encoder, which
        # took 0.142 s for the 19,845 analyze-history rows; this takes
        # 0.029-0.040 s of CPU (2-CPU shared machine).
        if not rows:
            return "[]\n"
        keys = [f"    {encode_basestring_ascii(c)}: " for c in columns]
        name_key, commits_key = keys[:2]
        tails = {shape: "".join([f",\n{key}{json.dumps(v)}" for key, v in zip(keys[2:], cells)])
                 for shape, cells in tail_cells.items()}
        objects = [
            f"{name_key}{encode_basestring_ascii(row[0])},\n{commits_key}{row[1]}{tails[shape]}"
            for row, shape in zip(rows, shapes)
        ]
        return "[\n  {\n" + "\n  },\n  {\n".join(objects) + "\n  }\n]\n"
    texts = {shape: list(map(_text_cell, cells)) for shape, cells in tail_cells.items()}
    if output_format == CSV:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [columns, *([row[0], row[1], *texts[shape]] for row, shape in zip(rows, shapes))]
        )
        return buffer.getvalue()
    # text: whitespace-aligned columns, each as wide as its widest cell.
    # Commits are counts, so the largest is the longest.
    widths = [
        max(map(len, [columns[0], *map(itemgetter(0), rows)])),
        max(len(columns[1]), len(str(max(map(itemgetter(1), rows), default=0)))),
        *(max(map(len, cells)) for cells in zip(columns[2:], *texts.values())),
    ]

    def pad(cells, widths):
        return "  ".join([cell.ljust(width) for cell, width in zip(cells, widths)]).rstrip()

    name_width, commits_width = widths[:2]
    # A tail ends in the prediction, so it is never blank, and stripping
    # it strips the whole line.
    tails = {shape: pad(cells, widths[2:]) for shape, cells in texts.items()}
    lines = [pad(columns, widths)]
    lines += [f"{row[0].ljust(name_width)}  {str(row[1]).ljust(commits_width)}  {tails[shape]}"
              for row, shape in zip(rows, shapes)]
    return "\n".join(lines) + "\n"


def run_train(args) -> int:
    from .evaluation import FAMILY_FOREST, format_grid_table, format_report, stratified_split

    cli = sys.modules[__name__]
    cap = FeatureConfig().max_messages
    if args.min_messages > cap:
        raise UsageError(f"--min-messages ({args.min_messages}) must not exceed {cap}, "
                         "the most messages read per contributor")
    config = FeatureConfig(min_messages=args.min_messages)
    dataset = cli.load_dataset(args.dataset, min_messages=config.min_messages)
    X, y = cli.featurize(dataset, config)
    train_idx, test_idx = stratified_split(y, args.train_fraction, seed=args.seed)
    X_train, y_train = X[train_idx], y[train_idx]

    rows = cli.cross_validate(X_train, y_train, k_folds=args.folds, seed=args.seed)
    print(format_grid_table(rows))

    best = next(row for row in rows if row.config.family == FAMILY_FOREST)
    model = cli.train_forest(
        X_train,
        y_train,
        seed=args.seed,
        feature_config=config,
        **best.config.params,
    )
    save_model(model, args.output)
    print(f"model written to {args.output}")

    report = cli.evaluate_pretrained(model, X[test_idx], y[test_idx])
    print(format_report(report))
    return 0


def run_evaluate(args) -> int:
    from .evaluation import format_report

    cli = sys.modules[__name__]
    model = load_model(args.model) if args.model else load_default_model()
    config = model.feature_config
    dataset = cli.load_dataset(args.dataset, min_messages=config.min_messages)
    report = cli.evaluate_pretrained(model, *cli.featurize(dataset, config))
    print(format_report(report))
    return 0


def _int_at_least(lowest: int):
    """argparse type: an int no smaller than lowest."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _fraction(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be between 0 and 1 exclusive, got {value}")
    return value


_fraction.__name__ = "float"  # argparse names it in "invalid float value"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="gitbot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify contributors of git repositories")
    analyze.add_argument("repositories", metavar="REPOSITORY", nargs="+")
    analyze.add_argument("--include", metavar="NAME", nargs="+", default=None,
                         help="only analyze these contributor names; list them after "
                              "the repositories, or end them with --")
    analyze.add_argument("--start-date", type=date.fromisoformat, default=None,
                         help="ignore commits before this date (YYYY-MM-DD), "
                              "UTC, by the selected role's date")
    analyze.add_argument("--mapping", default=None,
                         help="CSV mapping names to identities (IGNORE drops a name)")
    analyze.add_argument("--committer", action="store_true",
                         help="use committer names instead of author names")
    analyze.add_argument("--min-commits", type=_int_at_least(1), default=None,
                         help="minimum commits needed to make a prediction")
    analyze.add_argument("--max-commits", type=_int_at_least(1), default=None,
                         help="newest commits per contributor, in git log order")
    analyze.add_argument("--verbose", action="store_true",
                         help="include the full feature columns")
    analyze.add_argument("--only-predicted", action="store_true",
                         help="drop contributors predicted as unknown")
    analyze.add_argument("--model", dest="model_path", default=None,
                         help="model file to use instead of the shipped one")
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--text", dest="output_format", action="store_const", const=TEXT)
    fmt.add_argument("--csv", dest="output_format", action="store_const", const=CSV)
    fmt.add_argument("--json", dest="output_format", action="store_const", const=JSON)
    analyze.set_defaults(output_format=TEXT)

    train = sub.add_parser("train", help="train a model on a labeled dataset")
    train.add_argument("dataset", help="labeled dataset file (CSV or JSON lines)")
    train.add_argument("--output", "-o", required=True, help="where to write the model")
    train.add_argument("--seed", type=_int_at_least(0), default=42)
    train.add_argument("--folds", type=_int_at_least(2), default=5)
    train.add_argument("--train-fraction", type=_fraction, default=0.6)
    train.add_argument("--min-messages", type=_int_at_least(1), default=10)

    evaluate = sub.add_parser("evaluate", help="score a model on a labeled dataset")
    evaluate.add_argument("dataset", help="labeled dataset file (CSV or JSON lines)")
    evaluate.add_argument("--model", default=None,
                          help="model file (defaults to the shipped one)")
    for command in (analyze, train, evaluate):
        # a check made after parsing reports with its command's usage line
        command.set_defaults(usage_error=command.error)
    return parser


_SUBCOMMANDS = {"analyze", "train", "evaluate"}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "analyze")  # bare repository paths imply analyze
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "analyze":
            # Analysis makes a tracked object per commit and per contributor,
            # and formatting one per row, but neither makes reference
            # cycles, so the cyclic collector only costs time there: 0.05 s
            # of CPU on 100,000 commits, most of it while the parser shares
            # git's CPU, and 5-7 ms on 19,845 rows.
            collecting = gc.isenabled()
            gc.disable()
            try:
                output = format_output(run_analysis(args), args.output_format, args.verbose)
            finally:
                if collecting:
                    gc.enable()
            if hasattr(sys.stdout, "reconfigure"):  # not an in-memory stdout
                sys.stdout.reconfigure(errors="surrogateescape")  # as git's names were read
            sys.stdout.write(output)
            return 0
        if args.command == "train":
            return run_train(args)
        return run_evaluate(args)
    except UsageError as exc:
        args.usage_error(str(exc))
    except (GitbotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
