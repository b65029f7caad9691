"""Seeded input generator for the benchmark workloads.

Everything here is the benchmark's own: it does not import gitbot, so
changes to the program (its synthetic corpora included) cannot move
the inputs. Repositories are bare, hold one linear branch of empty-tree
commits and are written with `git fast-import`, so a seed always gives
the same HEAD hash.

Besides the inputs, `generate` writes `expected.json`: what the
generator knows about the answer without running the program (commit
counts per identity after mapping, empty messages among the newest
100, which names are ignored).
"""

import csv
import json
import random
import shutil
import subprocess
from pathlib import Path

GENERATOR_VERSION = 1

MAX_MESSAGES = 100  # the bench model's max_messages: rows count empties among these
START_TS = 1_600_000_000  # 2020-09-13, first commit of every repository
HISTORY_COMMITS = 100_000

# Slot values have fixed widths, so every template renders to 22-24
# characters and the clustering cost of a bot corpus hardly depends on
# which templates a seed picks.
_PACKAGES = ["lodash", "pytest", "eslint", "django", "sphinx", "pandas", "jquery", "rollup"]
_ORGS = ["acme", "core", "labs", "apps", "tool", "devs"]
_LANGS = ["de", "fr", "es", "pt", "ja", "zh", "ru", "it", "nl", "pl", "sv", "ko"]
_TEMPLATES = [
    lambda r: f"bump {r.choice(_PACKAGES)} to {_version(r)}",
    lambda r: f"merge pr #{r.randint(1000, 9999)} from {r.choice(_ORGS)}",
    lambda r: f"nightly build {r.randint(2019, 2025)}-{r.randint(1, 12):02d}-{r.randint(1, 28):02d}",
    lambda r: f"update translations ({r.choice(_LANGS)})",
    lambda r: f"release version {_version(r)}",
    lambda r: f"format mod-{r.randint(1, 99):02d} [ci skip]",
]

_WORDS = (
    "fix add remove refactor rename move clean update improve simplify rework "
    "tweak adjust handle support implement introduce drop avoid parser lexer "
    "cache index buffer socket thread config option flag header footer layout "
    "widget button dialog menu panel chart table bug crash leak race deadlock "
    "regression typo warning error test suite fixture mock logging metrics "
    "login session token auth user account profile search filter query schema "
    "column row transaction endpoint route handler request response payload "
    "release pipeline docker image script hook missing broken stale slow flaky "
    "when after before during without between across properly gracefully"
).split()

_EMPTY_MESSAGES = ["", "\n", "   ", " \n\t"]


def _version(r: random.Random) -> str:
    return f"{r.randint(0, 9)}.{r.randint(0, 19):02d}.{r.randint(0, 39):02d}"


def bot_messages(r: random.Random, n: int) -> list[str]:
    """Template messages: one to three templates, one of them dominant."""
    templates = r.sample(_TEMPLATES, r.randint(1, 3))
    weights = [4] + [1] * (len(templates) - 1)
    return [r.choices(templates, weights)[0](r) for _ in range(n)]


def human_messages(r: random.Random, n: int, n_empty: int = 0) -> list[str]:
    """Free-text messages of four words, `n_empty` of them empty."""
    out = [" ".join(r.choices(_WORDS, k=4)) for _ in range(n)]
    for i in r.sample(range(n), n_empty):
        out[i] = r.choice(_EMPTY_MESSAGES)
    return out


def _is_empty(message: str) -> bool:
    return not message.split()


# ---------------------------------------------------------------- repository


def _email(name: str) -> str:
    return name.lower().replace(" ", ".") + "@example.com"


def write_repository(path: Path, commits: list[tuple[str, str]], env: dict) -> str:
    """Write (name, message) pairs, oldest first, as one linear branch.

    Commit i is dated START_TS + 60 * i, so history order and date order
    agree and no two commits share a timestamp. Returns the HEAD hash.
    """
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(path)],
                   check=True, env=env)
    chunks = []
    for i, (name, message) in enumerate(commits):
        ident = f"{name} <{_email(name)}> {START_TS + 60 * i} +0000"
        data = message.encode("utf-8")
        chunks.append(
            b"commit refs/heads/main\nauthor %s\ncommitter %s\ndata %d\n%s\n"
            % (ident.encode(), ident.encode(), len(data), data)
        )
    subprocess.run(["git", "-C", str(path), "fast-import", "--quiet"],
                   input=b"".join(chunks), check=True, env=env)
    head = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          check=True, capture_output=True, env=env)
    return head.stdout.decode().strip()


def _expected_rows(commits, mapping: dict[str, str]) -> dict:
    """Per identity after mapping: commit count and empties among the newest 100."""
    rows: dict[str, dict] = {}
    for name, message in reversed(commits):  # newest first
        identity = mapping.get(name, name)
        if identity == "IGNORE":
            continue
        row = rows.setdefault(identity, {"commits": 0, "empties": 0})
        if row["commits"] < MAX_MESSAGES and _is_empty(message):
            row["empties"] += 1
        row["commits"] += 1
    return rows


# ----------------------------------------------------------------- workloads


def _mixed(r: random.Random, out: Path, env: dict) -> dict:
    """Two template bots, two free-text humans, four light contributors."""
    corpora = []
    for i in range(2):
        corpora.append((f"release-bot-{i}", bot_messages(r, r.randint(110, 130))))
    for i, name in enumerate(["Alice Moreau", "Bilal Haddad"]):
        corpora.append((name, human_messages(r, r.randint(110, 130), 8 if i == 0 else 0)))
    for i in range(4):
        corpora.append((f"drive-by-{i}", human_messages(r, r.randint(2, 9))))
    commits = _interleave(r, corpora)
    head = write_repository(out / "repo.git", commits, env)
    return {"head": head, "rows": _expected_rows(commits, {}), "ignored": []}


def _history(r: random.Random, out: Path, env: dict) -> dict:
    """A long history: many drive-by names, a few heavy identities under aliases."""
    corpora = []
    mapping: dict[str, str] = {}
    heavy = [
        ("deps-bot", ["deps-bot", "deps-bot[bot]", "Deps Bot"], "bot"),
        ("Dana Whitfield", ["Dana Whitfield", "dana"], "human"),
    ]
    for identity, aliases, kind in heavy:
        for alias in aliases:
            n = r.randint(60, 90)
            messages = bot_messages(r, n) if kind == "bot" else human_messages(r, n, 2)
            corpora.append((alias, messages))
            mapping[alias] = identity
    # a heavy name the mapping ignores: its corpus is never clustered
    corpora.append(("ci-mirror", bot_messages(r, 150)))
    mapping["ci-mirror"] = "IGNORE"
    used = sum(len(m) for _, m in corpora)
    i = 0
    while used < HISTORY_COMMITS:
        n = min(r.randint(1, 9), HISTORY_COMMITS - used)
        corpora.append((f"contrib-{i:05d}", human_messages(r, n)))
        used += n
        i += 1
    for name in ("contrib-00003", "contrib-00042"):
        mapping[name] = "IGNORE"
    commits = _interleave(r, corpora)
    head = write_repository(out / "repo.git", commits, env)
    with open(out / "mapping.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "identity"])
        writer.writerows(sorted(mapping.items()))
    ignored = sorted(name for name, identity in mapping.items() if identity == "IGNORE")
    return {"head": head, "rows": _expected_rows(commits, mapping), "ignored": ignored}


def _train(r: random.Random, out: Path, env: dict) -> dict:
    """Labeled CSV: 36 bot and 36 human corpora of 10-30 messages, 4 too small.

    One corpus in six looks like the other class (a templated human, a
    free-text bot), so the classifiers can be wrong.
    """
    rows = []
    sizes = {"bot": 36, "human": 36}
    for label, count in sizes.items():
        for i in range(count):
            n = r.randint(10, 30)
            if (label == "bot") != (i % 6 == 5):
                messages = bot_messages(r, n)
            else:
                messages = human_messages(r, n, 1 if i % 4 == 0 else 0)
            rows.extend((f"{label}-{i:03d}", f"repo-{i % 7}", label, m) for m in messages)
    for i in range(4):  # dropped by the loader: fewer than 10 messages
        rows.extend((f"tiny-{i}", "repo-0", "human", m) for m in human_messages(r, r.randint(3, 9)))
    with open(out / "dataset.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["contributor_id", "repository_id", "label", "message"])
        writer.writerows(rows)
    return {}


def _interleave(r: random.Random, corpora) -> list[tuple[str, str]]:
    """Shuffle all commits into one timeline, keeping each corpus's order."""
    slots = [k for k, (_, messages) in enumerate(corpora) for _ in messages]
    r.shuffle(slots)
    cursors = [0] * len(corpora)
    commits = []
    for k in slots:
        name, messages = corpora[k]
        commits.append((name, messages[cursors[k]]))
        cursors[k] += 1
    return commits


WORKLOADS = {
    "analyze-mixed": _mixed,
    "analyze-history": _history,
    "train-grid": _train,
}


def generate(workload: str, seed: int, out: Path, env: dict) -> dict:
    """Write the workload's inputs for `seed` into `out` and return expectations."""
    out.mkdir(parents=True, exist_ok=True)
    r = random.Random(f"{workload}/{seed}")
    expected = WORKLOADS[workload](r, out, env)
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n")
    return expected


def setup_repository(out: Path, env: dict) -> Path:
    """The one-commit repository that set-up time is measured on."""
    path = out / "repo.git"
    if not path.exists():
        partial = out / "partial.git"
        shutil.rmtree(partial, ignore_errors=True)
        write_repository(partial, [("Solo Dev", "initial commit")], env)
        partial.rename(path)
    return path
