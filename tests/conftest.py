import numpy as np
import pytest

from collindiag import Dataset, design_matrix, fixture, linalg, response_vector


@pytest.fixture(scope="session")
def theil_dataset():
    return fixture("theil")


@pytest.fixture(scope="session")
def kg_dataset():
    return fixture("kg")


@pytest.fixture(scope="session")
def theil_design(theil_dataset):
    return design_matrix(theil_dataset)


@pytest.fixture(scope="session")
def kg_design(kg_dataset):
    return design_matrix(kg_dataset)


@pytest.fixture(scope="session")
def theil_y(theil_dataset):
    return response_vector(theil_dataset)


@pytest.fixture(scope="session")
def kg_y(kg_dataset):
    return response_vector(kg_dataset)


def subset_design(dataset: Dataset, labels: tuple[str, ...]):
    """Design matrix over a subset of regressor columns of a dataset."""
    keep = [j for j, label in enumerate(dataset.labels) if label in labels]
    return design_matrix(Dataset(dataset.name, [dataset.labels[j] for j in keep],
                                 [dataset.roles[j] for j in keep], dataset.values[:, keep]))


@pytest.fixture(scope="session")
def theil_income_design(theil_dataset):
    return subset_design(theil_dataset, ("income",))


@pytest.fixture(scope="session")
def theil_relprice_design(theil_dataset):
    return subset_design(theil_dataset, ("relprice",))


@pytest.fixture(scope="session")
def theil_twenties_design(theil_dataset):
    return subset_design(theil_dataset, ("twenties",))


def random_design(rng: np.random.Generator, n_quant=None, n=None, with_dummy=False):
    """A random well-conditioned design matrix for property suites."""
    from collindiag import DesignMatrix

    n = int(n if n is not None else rng.integers(10, 40))
    q = int(n_quant if n_quant is not None else rng.integers(2, 6))
    base = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), size=n)
    cols = [base * rng.uniform(-1.5, 1.5) + rng.normal(0, rng.uniform(0.5, 3), size=n)
            + rng.uniform(-10, 10) for _ in range(q)]
    labels = ["intercept"] + [f"x{i + 1}" for i in range(q)]
    quant = tuple(range(1, q + 1))
    dummy = ()
    if with_dummy:
        d = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if d.min() == d.max():  # avoid a constant dummy
            d[0] = 1.0 - d[0]
        cols.append(d)
        labels.append("d1")
        dummy = (q + 1,)
    X = np.column_stack([np.ones(n)] + cols)
    return DesignMatrix(X=X, intercept_present=True, quantitative_idx=quant,
                        dummy_idx=dummy, labels=tuple(labels))


def count_factorizations(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Record (name, shape of the argument) for every np.linalg.qr and
    np.linalg.svd call from now on.  A linalg._r_factor call that factors
    its rows in panels is one ("panel qr", shape of the argument) entry in
    place of its two stacked QRs, so it counts as one n-row factorization."""
    calls = []
    for name in ("qr", "svd"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def r_factor(A, _fn=linalg._r_factor):
        start = len(calls)
        R = _fn(A)
        if len(calls) > start + 1:  # the panels, then their stacked R factors
            calls[start:] = [("panel qr", np.shape(A))]
        return R

    monkeypatch.setattr(linalg, "_r_factor", r_factor)
    return calls


def count_inverses(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of the argument of every np.linalg.inv call from now on."""
    shapes = []

    def counted(a, *args, _fn=np.linalg.inv, **kwargs):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return shapes
