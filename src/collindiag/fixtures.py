"""Built-in example datasets.

Two classic small regression datasets that exhibit, respectively,
nonessential collinearity (a low-variability regressor) and essential
collinearity (strongly related regressors): annual textile consumption
with income and relative price, and aggregate consumption with three
income components.
"""

from .dataset import Dataset

__all__ = ["fixture", "FIXTURE_NAMES"]

# year, consumption, income, relative price, 1920s indicator
_THEIL_ROWS = (
    (1923, 99.2, 96.7, 101.0, 1),
    (1924, 99.0, 98.1, 100.1, 1),
    (1925, 100.0, 100.0, 100.0, 1),
    (1926, 111.6, 104.9, 90.6, 1),
    (1927, 122.2, 104.9, 86.5, 1),
    (1928, 117.6, 109.5, 89.7, 1),
    (1929, 121.1, 110.8, 90.6, 1),
    (1930, 136.0, 112.3, 82.8, 0),
    (1931, 154.2, 109.3, 70.1, 0),
    (1932, 153.6, 105.3, 65.4, 0),
    (1933, 158.5, 101.7, 61.3, 0),
    (1934, 140.6, 95.4, 62.5, 0),
    (1935, 136.2, 96.4, 63.6, 0),
    (1936, 168.0, 97.6, 52.6, 0),
    (1937, 154.3, 102.4, 59.7, 0),
    (1938, 149.0, 101.6, 59.5, 0),
    (1939, 165.5, 103.8, 61.3, 0),
)

# year, consumption, wage income, non-farm non-wage income, farm income
_KG_ROWS = (
    (1936, 62.8, 43.41, 17.10, 3.96),
    (1937, 65.0, 46.44, 18.65, 5.48),
    (1938, 63.9, 44.35, 17.09, 4.37),
    (1939, 67.5, 47.82, 19.28, 4.51),
    (1940, 71.3, 51.02, 23.24, 4.88),
    (1941, 76.6, 58.71, 28.11, 6.37),
    (1945, 86.3, 87.69, 30.29, 8.96),
    (1946, 95.7, 76.73, 28.26, 9.76),
    (1947, 98.3, 75.91, 27.91, 9.31),
    (1948, 100.3, 77.62, 32.30, 9.85),
    (1949, 103.2, 78.01, 31.39, 7.21),
    (1950, 108.9, 83.57, 35.61, 7.39),
    (1951, 108.5, 90.59, 37.58, 7.98),
    (1952, 111.4, 95.47, 35.17, 7.42),
)


# name: (rows, then the label and the role of each column after the year)
_FIXTURES = {
    "theil": (_THEIL_ROWS, ("consumption", "income", "relprice", "twenties"),
              ("response", "quantitative", "quantitative", "dummy")),
    "kg": (_KG_ROWS, ("consumption", "wage_income", "nonfarm_income", "farm_income"),
           ("response", "quantitative", "quantitative", "quantitative")),
}
FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str) -> Dataset:
    """Return a built-in dataset by name ('theil' or 'kg')."""
    try:
        rows, labels, roles = _FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; valid names: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return Dataset(name, labels, roles, [row[1:] for row in rows])
