"""Command-line front-end: analyze repositories, train, evaluate.

`gitbot REPOSITORY [...]` analyzes repositories with the shipped model
(analyze is the implied subcommand). Result rows go to stdout in text,
CSV, or JSON; errors go to stderr. Exit codes: 0 success, 1 usage
error, 2 analysis/training error.

Names are written as git gave them: CSV and text write their bytes,
even bytes that are not UTF-8, which JSON escapes as \\udcXX.
"""

import argparse
import gc
import importlib
import io
import os
import sys
from math import copysign
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from .errors import GitbotError, UsageError
from .extractor import GitLog, extract_commits, group_messages

if TYPE_CHECKING:
    from .features import FeatureConfig
    from .forest import ForestModel

TEXT, CSV, JSON = "text", "csv", "json"
UNKNOWN = "unknown"  # the prediction of a contributor too small for features
# installed beside the modules by pyproject's [tool.setuptools.package-data]
SHIPPED_MODEL = os.path.join(os.path.dirname(__file__), "data", "default_model.json")
_MODEL_HELP = "model file to use instead of the shipped one"

# The module docstring is the --help text, so the split is told here.
# This module imports what parsing the command line and spawning git
# need, and no more. `analyze` parses its arguments and spawns the first
# repository's `git log`; only then does `run_analysis` import the
# analysis modules (features, similarity, forest, identity, model_io)
# and load the model and the mapping, while git walks the history on
# another CPU. `json`, `csv` and `datetime` are imported where they are
# used. The shipped model is SHIPPED_MODEL, a file beside the modules
# that `model_io.load_model` reads as it reads any --model file. The
# package imports none of `pathlib`, `zipfile`, `subprocess`,
# `tempfile` and `calendar`: `extractor.GitLog` spawns git itself (numpy,
# which train and evaluate load, imports `tempfile` and `datetime`).
# `analyze` runs without numpy. `train` and `evaluate` import `dataset`,
# which loads numpy inside `featurize` while its workers compute
# features, and import evaluation and training, which need numpy at
# import, only after `featurize` has returned. No command loads
# `dataclasses`: every record in the package is a NamedTuple. Training
# forks its workers through `parallel.run_tasks`, which loads neither
# `multiprocessing` nor `concurrent.futures`.
# Attribute -> module of the names the commands call through this module.
_DEFERRED_NAMES = {
    "compute_features": "features",
    "load_mapping": "identity",
    "apply_mapping": "identity",
    "load_model": "model_io",
    "save_model": "model_io",
    "load_dataset": "dataset",
    "featurize": "dataset",
    "cross_validate": "evaluation",
    "evaluate_pretrained": "evaluation",
    "train_forest": "training",
}


def __getattr__(name):
    """Import a deferred name on first use; it stays an attribute of this module.

    `run_analysis`, `run_train` and `run_evaluate` look these names up
    through the module at call time, so a wrapper set on one still
    fires. No other name is answered: the import system probes names
    such as __path__.
    """
    if name not in _DEFERRED_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_DEFERRED_NAMES[name]}", __package__), name)


class ResultRow(NamedTuple):
    name: str
    commits: int
    patterns: int | None
    dispersion: float | None
    prediction: str
    empties: int | None = None  # shown only with --verbose


def _analysis_config(args, model: "ForestModel") -> "FeatureConfig":
    """The model's feature configuration with --min-commits and --max-commits applied."""
    from .features import FeatureConfig

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

    The first repository's git is spawned before anything else, and it
    walks the history while the analysis modules, the model and the
    mapping load. Errors still come in their order: the model's, the
    mapping's, then git's. Leaving the block kills and reaps a git that
    was not read to its end.
    """
    with GitLog(args.repositories[0], args.committer, args.start_date) as first:
        rows = _analysis_rows(args, first)
    if args.only_predicted:
        rows = [row for row in rows if row.prediction != UNKNOWN]
    rows.sort(key=itemgetter(0))
    return rows


def _analysis_rows(args, first: GitLog) -> list[ResultRow]:
    """The rows of every repository, unsorted; first is the first one's git, started."""
    from . import forest
    from .identity import IdentityMapping

    cli = sys.modules[__name__]
    model = cli.load_model(args.model)
    config = _analysis_config(args, model)
    mapping = IdentityMapping()
    if args.mapping is not None:
        mapping = cli.load_mapping(args.mapping)
    apply_mapping, compute_features = cli.apply_mapping, cli.compute_features

    rows = []
    for i, repo in enumerate(args.repositories):
        try:
            commits = extract_commits(repo, committer=args.committer, start_date=args.start_date,
                                      log=first if i == 0 else None)
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
        import json
        from json.encoder import encode_basestring_ascii

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
        import csv

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
    from .features import FeatureConfig

    cli = sys.modules[__name__]
    cap = FeatureConfig().max_messages
    if args.min_messages > cap:
        raise UsageError(f"--min-messages ({args.min_messages}) must not exceed {cap}, "
                         "the most messages read per contributor")
    config = FeatureConfig(min_messages=args.min_messages)
    dataset = cli.load_dataset(args.dataset, min_messages=config.min_messages)
    X, y = cli.featurize(dataset, config)
    from .evaluation import FAMILY_FOREST, format_grid_table, format_report, stratified_split

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
    cli.save_model(model, args.output)
    print(f"model written to {args.output}")

    report = cli.evaluate_pretrained(model, X[test_idx], y[test_idx])
    print(format_report(report))
    return 0


def run_evaluate(args) -> int:
    cli = sys.modules[__name__]
    model = cli.load_model(args.model)
    config = model.feature_config
    dataset = cli.load_dataset(args.dataset, min_messages=config.min_messages)
    X, y = cli.featurize(dataset, config)
    from .evaluation import format_report

    print(format_report(cli.evaluate_pretrained(model, X, y)))
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


def _iso_date(text: str):
    """argparse type: a datetime.date written YYYY-MM-DD."""
    from datetime import date

    return date.fromisoformat(text)


_iso_date.__name__ = "fromisoformat"  # argparse names it in "invalid fromisoformat value"


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
    analyze.add_argument("--start-date", type=_iso_date, default=None,
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
    analyze.add_argument("--model", default=SHIPPED_MODEL, help=_MODEL_HELP)
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
    evaluate.add_argument("--model", default=SHIPPED_MODEL, help=_MODEL_HELP)
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
            _write_stdout(output)
            status = 0
        elif args.command == "train":
            status = run_train(args)
        else:
            status = run_evaluate(args)
        # a write to a closed pipe fails here, whatever the output's size,
        # not in a flush after `main` returns
        sys.stdout.flush()
        return status
    except UsageError as exc:
        args.usage_error(str(exc))
    except (GitbotError, OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write_stdout(output: str) -> None:
    """Write output to stdout whole, or raise the error that stops it.

    Names are encoded with surrogateescape, as git's names were read. A
    stdout with a binary layer is written through that layer, in a
    loop: unbuffered (`python -u`, PYTHONUNBUFFERED) the layer is the
    raw file, whose write may take only part of the output when the
    pipe's reader goes away, and the text layer drops the rest without
    an error; the loop writes on into EPIPE.
    """
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    if binary is None:  # an in-memory stdout
        stdout.write(output)
        return
    stdout.flush()
    data = memoryview(output.encode(stdout.encoding, "surrogateescape"))
    while data:
        data = data[binary.write(data):]


def _discard_stdout():
    """Point stdout's descriptor at os.devnull, after a write to a closed pipe.

    What stdout still buffers is then flushed there, so neither `run`
    nor the interpreter's exit meets the broken pipe again.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def _observed() -> bool:
    """Whether a tracer, a profiler or (Python 3.12+) a monitoring tool is set."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def run() -> NoReturn:
    """The process entry of `python -m gitbot` and the `gitbot` script.

    It ends the process as `sys.exit(main())` would, with the same exit
    status, but without the interpreter's teardown: it flushes stdout,
    then stderr, and leaves with `os._exit`. The teardown it skips is
    module deallocation and the final garbage collections, and it runs
    after every output is written. Measured from `main` returning to the
    process being reaped (medians of 20 runs, 2-CPU shared machine), it
    took 9.8 ms of an 88 ms analyze-mixed invocation and 26 ms of a
    285 ms train-grid invocation, most of that tearing down numpy; this
    entry takes 0.9 ms and 1.6 ms there.

    Nothing is lost by skipping it. Every file that gitbot writes is
    closed by a `with` before `main` returns; `parallel.run_tasks` reaps
    its workers and `run_analysis` leaves every git reaped; gitbot starts
    no thread and registers no atexit handler; and logging's handler
    only writes to stderr, which is flushed here.

    The process ends through the interpreter's teardown, as it always
    has, in three cases:
    - `main` raises, argparse's `SystemExit` included: the exception
      propagates;
    - a flush raises, as on a closed stdout: `sys.exit(status)`, and
      Python flushes again at exit and reports the error there. A pipe
      whose reader has closed is not one of them: `main` flushes stdout,
      meets the broken pipe itself, reports it, points stdout at
      os.devnull and returns 2;
    - a tracer or profiler is set (`cProfile`, `coverage`, `trace`), or
      on Python 3.12+ a `sys.monitoring` tool, which cProfile uses
      there: `sys.exit(status)`, as it writes its results at exit.
    `main` stays the in-process API and never ends the process.
    """
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # whatever it is, the usual exit meets it again and reports it
        sys.exit(status)
    if _observed():
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
