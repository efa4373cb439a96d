"""Offline simulacra of the paper's four real-world datasets.

The originals (Lawschs/LSAC, Adult, Compas, Credit) are downloads the
reproduction environment cannot fetch.  Following docs/ALGORITHMS.md,
"Substitutions", item 1, each is replaced by a seeded generator matching the properties
the FairHMS experiments actually exercise:

* the published row count ``n`` and dimensionality ``d`` (Table 2),
* the group structure: attribute names, group counts ``C`` and realistic
  group imbalance (majority/minority skew),
* a per-group *quality shift* so that unconstrained HMS solutions
  over-represent advantaged groups (the phenomenon behind Figure 3),
* attribute correlation tuned so the per-group skyline sizes land in the
  same order of magnitude as Table 2 (tens for Lawschs, hundreds for the
  multi-dimensional datasets).

Every generator returns the *raw* (pre-normalization) dataset; call
``.normalized()`` (division by column maxima, the paper's convention) before
running algorithms.
"""

from __future__ import annotations

import numpy as np

from .._rng import ensure_rng
from .dataset import Dataset
from .groups import combine_partitions

__all__ = [
    "lawschs",
    "adult",
    "compas",
    "credit",
    "load_dataset",
    "DATASET_GROUPS",
]


def _assign_groups(rng, n: int, proportions) -> np.ndarray:
    """Sample group labels with fixed expected proportions."""
    proportions = np.asarray(proportions, dtype=np.float64)
    proportions = proportions / proportions.sum()
    return rng.choice(len(proportions), size=n, p=proportions).astype(np.int64)


def _latent_scores(rng, n: int, d: int, *, correlation: float) -> np.ndarray:
    """Latent-factor attribute matrix in [0, 1] with tunable correlation.

    One latent quality factor per individual drives all attributes with
    weight ``correlation``; the rest is independent noise.  Higher
    correlation produces smaller skylines.
    """
    latent = rng.beta(4.0, 2.5, size=n)
    noise = rng.beta(2.0, 2.0, size=(n, d))
    return correlation * latent[:, None] + (1.0 - correlation) * noise


def _apply_group_shift(points, labels, shifts) -> np.ndarray:
    """Scale each group's attributes by ``1 - shift`` (a quality handicap).

    Positive shifts reproduce the real-world pattern that some groups score
    systematically lower on the recorded numeric attributes, which is what
    makes unconstrained HMS under-represent them.
    """
    points = points.copy()
    for group, shift in enumerate(shifts):
        if shift:
            points[labels == group] *= 1.0 - shift
    return points


# --------------------------------------------------------------------- #
# Lawschs (LSAC): 2d, n = 65,494, gender (2) / race (5)
# --------------------------------------------------------------------- #

_LAWSCHS_GENDER = ("Female", "Male")
_LAWSCHS_GENDER_P = (0.44, 0.56)
_LAWSCHS_RACE = ("White", "Black", "Hispanic", "Asian", "Other")
_LAWSCHS_RACE_P = (0.84, 0.06, 0.05, 0.04, 0.01)


def lawschs(seed: int = 7, *, n: int = 65_494, group_attribute: str = "Gender") -> Dataset:
    """Simulated LSAC law-school dataset: LSAT and GPA, strongly correlated.

    LSAT spans 120-180 and GPA 0-4; both are driven by one aptitude factor
    (correlation ~0.6 in the real data) so that 2-D skylines stay tiny
    (Table 2: 19 for gender, 42 for race).
    """
    rng = ensure_rng(seed)
    gender = _assign_groups(rng, n, _LAWSCHS_GENDER_P)
    race = _assign_groups(rng, n, _LAWSCHS_RACE_P)
    aptitude = rng.beta(5.0, 3.0, size=n)
    # Convex combinations of bounded variables: no clipping, so the top of
    # the range is never saturated (saturation would collapse a group's
    # skyline to a single "perfect" tuple).
    lsat_noise = rng.beta(2.0, 2.0, size=n)
    gpa_noise = rng.beta(2.0, 2.0, size=n)
    lsat = 120.0 + 60.0 * (0.85 * aptitude + 0.15 * lsat_noise)
    gpa = 4.0 * (0.80 * aptitude + 0.20 * gpa_noise)
    points = np.column_stack([lsat, gpa])
    # Group-level score gaps (documented in the LSAC literature).
    points = _apply_group_shift(points, gender, (0.015, 0.0))
    points = _apply_group_shift(points, race, (0.0, 0.06, 0.045, 0.02, 0.03))
    return _with_partition(
        points, "Lawschs", group_attribute,
        {"Gender": (gender, _LAWSCHS_GENDER), "Race": (race, _LAWSCHS_RACE)},
    )


# --------------------------------------------------------------------- #
# Adult: 5d, n = 32,561, gender (2) / race (5) / G+R (10)
# --------------------------------------------------------------------- #

_ADULT_GENDER = ("Female", "Male")
_ADULT_GENDER_P = (0.33, 0.67)
_ADULT_RACE = ("White", "Black", "Asian-Pac", "Amer-Indian", "Other")
_ADULT_RACE_P = (0.854, 0.096, 0.031, 0.010, 0.009)


def adult(seed: int = 11, *, n: int = 32_561, group_attribute: str = "Gender") -> Dataset:
    """Simulated Adult census dataset (5 numeric attributes).

    Attributes mimic the originals: education years (discrete-ish),
    zero-inflated heavy-tailed capital gain/loss, weekly hours, and the
    census weight.  Moderate correlation keeps per-group skylines in the
    low hundreds (Table 2: 130 / 206 / 339).
    """
    rng = ensure_rng(seed)
    gender = _assign_groups(rng, n, _ADULT_GENDER_P)
    race = _assign_groups(rng, n, _ADULT_RACE_P)
    base = _latent_scores(rng, n, 5, correlation=0.55)
    education = np.rint(1.0 + 15.0 * base[:, 0])
    gain_mask = rng.random(n) < 0.085
    capital_gain = np.where(
        gain_mask, rng.lognormal(8.0, 1.1, size=n) * (0.5 + base[:, 1]), 0.0
    )
    loss_mask = rng.random(n) < 0.047
    capital_loss = np.where(
        loss_mask, rng.lognormal(7.3, 0.5, size=n) * (0.5 + base[:, 2]), 0.0
    )
    hours = np.clip(rng.normal(40.0, 12.0, size=n) * (0.6 + 0.8 * base[:, 3]), 1, 99)
    weight = 1.2e4 + 1.4e6 * base[:, 4] ** 2
    points = np.column_stack([education, capital_gain, capital_loss, hours, weight])
    points = _apply_group_shift(points, gender, (0.12, 0.0))
    points = _apply_group_shift(points, race, (0.0, 0.10, 0.03, 0.12, 0.08))
    parts = {"Gender": (gender, _ADULT_GENDER), "Race": (race, _ADULT_RACE)}
    if group_attribute == "G+R":
        labels, names = combine_partitions(
            gender, race, names=(_ADULT_GENDER, _ADULT_RACE)
        )
        parts["G+R"] = (labels, names)
    return _with_partition(points, "Adult", group_attribute, parts)


# --------------------------------------------------------------------- #
# Compas: 9d, n = 4,743, gender (2) / isRecid (2) / G+iR (4)
# --------------------------------------------------------------------- #

_COMPAS_GENDER = ("Male", "Female")
_COMPAS_GENDER_P = (0.81, 0.19)
_COMPAS_RECID = ("NotRecid", "Recid")
_COMPAS_RECID_P = (0.66, 0.34)


def compas(seed: int = 13, *, n: int = 4_743, group_attribute: str = "Gender") -> Dataset:
    """Simulated Compas dataset (9 correlated numeric attributes).

    Nine attributes on a shared risk factor; correlation 0.62 keeps the
    per-group skylines near Table 2's 195-296 despite d = 9.
    """
    rng = ensure_rng(seed)
    gender = _assign_groups(rng, n, _COMPAS_GENDER_P)
    recid = _assign_groups(rng, n, _COMPAS_RECID_P)
    points = _latent_scores(rng, n, 9, correlation=0.62)
    scales = np.array([800.0, 40.0, 10.0, 10.0, 25.0, 12.0, 10.0, 60.0, 5.0])
    points = points * scales
    points = _apply_group_shift(points, gender, (0.0, 0.08))
    points = _apply_group_shift(points, recid, (0.0, 0.08))
    parts = {
        "Gender": (gender, _COMPAS_GENDER),
        "isRecid": (recid, _COMPAS_RECID),
    }
    if group_attribute == "G+iR":
        labels, names = combine_partitions(
            gender, recid, names=(_COMPAS_GENDER, _COMPAS_RECID)
        )
        parts["G+iR"] = (labels, names)
    return _with_partition(points, "Compas", group_attribute, parts)


# --------------------------------------------------------------------- #
# Credit: 7d, n = 1,000, housing (3) / job (4) / working years (5)
# --------------------------------------------------------------------- #

_CREDIT_HOUSING = ("Own", "Rent", "Free")
_CREDIT_HOUSING_P = (0.71, 0.18, 0.11)
_CREDIT_JOB = ("Unskilled", "Skilled", "Management", "Unemployed")
_CREDIT_JOB_P = (0.22, 0.63, 0.13, 0.02)
_CREDIT_WY = ("<1y", "1-4y", "4-7y", ">=7y", "None")
_CREDIT_WY_P = (0.17, 0.34, 0.17, 0.25, 0.07)


def credit(seed: int = 17, *, n: int = 1_000, group_attribute: str = "Job") -> Dataset:
    """Simulated German credit dataset (7 numeric attributes)."""
    rng = ensure_rng(seed)
    housing = _assign_groups(rng, n, _CREDIT_HOUSING_P)
    job = _assign_groups(rng, n, _CREDIT_JOB_P)
    years = _assign_groups(rng, n, _CREDIT_WY_P)
    points = _latent_scores(rng, n, 7, correlation=0.45)
    scales = np.array([75.0, 18_000.0, 4.0, 4.0, 75.0, 4.0, 2.0])
    points = points * scales
    points = _apply_group_shift(points, job, (0.06, 0.0, 0.0, 0.08))
    points = _apply_group_shift(points, housing, (0.0, 0.03, 0.05))
    parts = {
        "Housing": (housing, _CREDIT_HOUSING),
        "Job": (job, _CREDIT_JOB),
        "WY": (years, _CREDIT_WY),
    }
    return _with_partition(points, "Credit", group_attribute, parts)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

def _with_partition(points, name, group_attribute, partitions) -> Dataset:
    """Build a Dataset for the requested partition attribute."""
    if group_attribute not in partitions:
        raise ValueError(
            f"{name} has no group attribute {group_attribute!r}; "
            f"available: {sorted(partitions)}"
        )
    labels, names = partitions[group_attribute]
    return Dataset(
        points=points,
        labels=labels,
        name=name,
        group_attribute=group_attribute,
        group_names=tuple(names),
    )


#: Group attributes available per dataset, mirroring the paper's Table 2.
DATASET_GROUPS = {
    "Lawschs": ("Gender", "Race"),
    "Adult": ("Gender", "Race", "G+R"),
    "Compas": ("Gender", "isRecid", "G+iR"),
    "Credit": ("Housing", "Job", "WY"),
}

_LOADERS = {"Lawschs": lawschs, "Adult": adult, "Compas": compas, "Credit": credit}


def load_dataset(name: str, group_attribute: str | None = None, *, seed=None,
                 n: int | None = None) -> Dataset:
    """Load a simulated real-world dataset by name.

    Args:
        name: one of ``Lawschs``, ``Adult``, ``Compas``, ``Credit``.
        group_attribute: partition to use (defaults to the first attribute
            listed in :data:`DATASET_GROUPS`).
        seed: optional seed override (each dataset has a fixed default so
            repeated loads are identical).
        n: optional row-count override for scaled-down experiments.
    """
    if name not in _LOADERS:
        raise ValueError(f"unknown dataset {name!r}; expected one of {sorted(_LOADERS)}")
    if group_attribute is None:
        group_attribute = DATASET_GROUPS[name][0]
    kwargs = {"group_attribute": group_attribute}
    if n is not None:
        kwargs["n"] = n
    loader = _LOADERS[name]
    if seed is None:
        return loader(**kwargs)
    return loader(seed, **kwargs)
