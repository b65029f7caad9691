"""Deterministic synthetic corpora of bot-like and human-like activity.

Bots draw messages from a handful of templates where only a short slot
varies (version numbers, ticket ids, dates), so their messages collapse
into few patterns. Humans produce free-form word-salad messages that
rarely resemble each other, plus occasional empty messages. Used for
desk-scale benchmarks and to train the shipped default model.
"""

import numpy as np

from .dataset import DatasetEntry, LabeledDataset
from .forest import BOT, HUMAN

_PACKAGES = [
    "lodash", "react", "requests", "numpy", "express", "flask", "webpack",
    "eslint", "pytest", "django", "axios", "babel", "typescript", "jest",
]

_ORGS = ["acme", "devtools", "platform", "infra", "widgets"]
_BRANCHES = ["dependency-updates", "auto-format", "weekly-sync", "l10n", "renovate"]
_LANGS = ["de", "fr", "es", "pt", "ja", "zh", "ru", "it", "nl", "pl"]
_FILES = ["config", "readme", "makefile", "schema", "manifest", "pipeline"]

_CONSTANT_MESSAGES = [
    "deploy to production",
    "update changelog",
    "regenerate api documentation",
    "sync translations",
    "rebuild static assets",
]

_HUMAN_VOCAB = (
    "fix add remove refactor rename move clean update improve simplify "
    "rework tweak adjust handle support implement introduce drop avoid "
    "parser lexer cache index buffer socket thread config option flag "
    "header footer layout widget button dialog menu panel chart table "
    "bug issue crash leak race deadlock regression typo warning error "
    "test suite fixture mock benchmark profiling logging metrics tracing "
    "login session token auth user account profile avatar search filter "
    "query database migration schema column row transaction connection "
    "api endpoint route handler middleware request response payload json "
    "build release deploy pipeline docker image container script hook "
    "missing broken stale slow flaky obsolete duplicate incorrect wrong "
    "when after before during without against between across within "
    "properly correctly gracefully silently eventually occasionally"
).split()


def _version(rng) -> str:
    return f"{rng.integers(0, 9)}.{rng.integers(0, 20)}.{rng.integers(0, 40)}"


def _bot_template_pool(rng):
    """Template closures; messages from one closure differ only in a slot."""
    pkg = str(rng.choice(_PACKAGES))
    org = str(rng.choice(_ORGS))
    branch = str(rng.choice(_BRANCHES))
    lang_pool = _LANGS
    filename = str(rng.choice(_FILES))
    constant = str(rng.choice(_CONSTANT_MESSAGES))
    return [
        lambda r: f"bump {pkg} from {_version(r)} to {_version(r)}",
        lambda r: f"merge pull request #{r.integers(1, 10000)} from {org}/{branch}",
        lambda r: f"automated nightly build 20{r.integers(18, 26)}-{r.integers(1, 13):02d}-{r.integers(1, 29):02d}",
        lambda r: f"update translations from weblate ({r.choice(lang_pool)})",
        lambda r: f"apply automatic formatting to {filename}-{r.integers(1, 50)}",
        lambda r: f"release version {_version(r)}",
        lambda r: constant,
    ]


def bot_messages(n: int, rng: np.random.Generator) -> list[str]:
    pool = _bot_template_pool(rng)
    n_templates = int(rng.integers(1, 4))
    chosen = rng.choice(len(pool), size=n_templates, replace=False)
    # one dominant template, the rest minor
    weights = rng.dirichlet(np.full(n_templates, 0.7))
    messages = []
    for _ in range(n):
        template = pool[int(chosen[rng.choice(n_templates, p=weights)])]
        messages.append(template(rng))
    # a couple of one-off hand-written commits keep bots from being pure
    for _ in range(int(rng.integers(0, 3))):
        if len(messages) > 1:
            k = int(rng.integers(0, len(messages)))
            messages[k] = " ".join(rng.choice(_HUMAN_VOCAB, size=6))
    return messages


def human_messages(n: int, rng: np.random.Generator) -> list[str]:
    empty_rate = float(rng.uniform(0.02, 0.12)) if rng.random() < 0.25 else 0.0
    messages = []
    for _ in range(n):
        if rng.random() < empty_rate:
            messages.append("")
            continue
        length = int(rng.integers(3, 10))
        messages.append(" ".join(rng.choice(_HUMAN_VOCAB, size=length)))
    # humans occasionally repeat themselves verbatim
    for _ in range(int(rng.integers(0, 3))):
        if len(messages) > 3:
            src = int(rng.integers(0, len(messages)))
            dst = int(rng.integers(0, len(messages)))
            messages[dst] = messages[src]
    return messages


def synthetic_dataset(
    n_bots: int = 200,
    n_humans: int = 200,
    seed: int = 0,
    min_messages: int = 10,
    max_messages: int = 100,
) -> LabeledDataset:
    """Labeled corpora of template-driven bots and high-entropy humans."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_bots):
        n = int(rng.integers(min_messages, max_messages + 1))
        name = f"bot-{i:04d}"
        entries.append(
            DatasetEntry(
                contributor=name,
                repository=f"repo-{i % 37:03d}",
                corpus=bot_messages(n, rng),
                label=BOT,
            )
        )
    for i in range(n_humans):
        n = int(rng.integers(min_messages, max_messages + 1))
        name = f"human-{i:04d}"
        entries.append(
            DatasetEntry(
                contributor=name,
                repository=f"repo-{i % 37:03d}",
                corpus=human_messages(n, rng),
                label=HUMAN,
            )
        )
    return LabeledDataset(entries=entries)
