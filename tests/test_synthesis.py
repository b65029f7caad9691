from gitbot.synthesis import synthetic_dataset


def corpora(dataset):
    return [(e.contributor, e.repository, e.label, e.corpus) for e in dataset.entries]


def test_same_seed_gives_equal_corpora():
    first = synthetic_dataset(n_bots=6, n_humans=6, seed=3)
    second = synthetic_dataset(n_bots=6, n_humans=6, seed=3)
    assert first == second
    assert len(first.entries) == 12


def test_different_seeds_give_different_corpora():
    first = synthetic_dataset(n_bots=6, n_humans=6, seed=3)
    other = synthetic_dataset(n_bots=6, n_humans=6, seed=4)
    assert corpora(first) != corpora(other)
    # names, repositories and labels follow the counts alone; only the messages differ
    assert [c[:3] for c in corpora(first)] == [c[:3] for c in corpora(other)]
