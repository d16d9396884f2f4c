import numpy as np
import pytest


def random_spd(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    """A well-conditioned random symmetric positive definite matrix."""
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T / p + np.eye(p))


def random_grouped(rng: np.random.Generator, counts, p: int, spread: float = 2.0):
    """Random dataset with one shifted cluster per group."""
    from rlda.datamodel import GroupedDataset

    blocks, labels = [], []
    for g, n_g in enumerate(counts):
        center = spread * rng.standard_normal(p)
        blocks.append(center + rng.standard_normal((n_g, p)))
        labels.extend([g] * n_g)
    names = tuple(f"g{g + 1}" for g in range(len(counts)))
    return GroupedDataset(np.vstack(blocks), np.array(labels), names)


def rank_deficient_dataset(seed: int, counts, p: int, duplicated: int):
    """Grouped rows whose last ``duplicated`` columns copy earlier ones; ``S`` is singular if any do or if n - K < p."""
    from rlda.datamodel import GroupedDataset

    rng = np.random.default_rng(seed)
    d = random_grouped(rng, counts, p=p - duplicated, spread=1.0)
    # Cycle through the base columns so the result has p columns even when
    # more columns are duplicated than there are base columns.
    values = np.hstack([d.values, d.values[:, np.arange(duplicated) % d.p]])
    return GroupedDataset(values, d.labels, d.group_names)


def duplicated_column_dataset(seed: int):
    """Two tall groups (n - K >= p) whose last column copies the first, so ``S`` is exactly singular."""
    from rlda.datamodel import GroupedDataset

    d = random_grouped(np.random.default_rng(seed), (60, 60), p=11, spread=0.3)
    return GroupedDataset(np.hstack([d.values, d.values[:, :1]]), d.labels, d.group_names)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
