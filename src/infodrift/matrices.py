"""The N-by-N interaction matrix shared by every estimator, and ``MEASURES``,
the one table of each measure's ``MeasureFacts``: results read ``directed``
and ``units`` from it, heatmaps ``signed`` and ``evolve`` ``binned``.

Orientation convention for directed measures: ``values[i][j]`` is the effect
of (or flow from) asset ``j`` on asset ``i``. The convention is recorded in
``params["orientation"]`` of every directed matrix.

Every frozen value type stores its arrays through ``freeze``, as read-only
views: a caller's array is neither copied nor frozen, and a later write to
it shows through the object.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# A measure's CLI alias, direction and units; ``signed``: values may be negative;
# ``binned``: estimated from binned columns, so its results carry bin edges.
MeasureFacts = namedtuple("MeasureFacts", "short directed units signed binned")

MEASURES = {
    "correlation": MeasureFacts("corr", False, "dimensionless", signed=True, binned=False),
    "mutual_information": MeasureFacts("mi", False, "bits", signed=False, binned=True),
    "transfer_entropy": MeasureFacts("te", True, "bits", signed=False, binned=True),
    "km_drift": MeasureFacts("km", True, "per-step", signed=True, binned=False),
}

ORIENTATION = "values[i][j] = flow from asset j into asset i"


def freeze(obj, name: str, dtype=np.float64) -> np.ndarray:
    """Set field ``name`` of the frozen dataclass ``obj`` to a read-only
    ``dtype`` view of its value, converted only if of another dtype."""
    view = np.asarray(getattr(obj, name), dtype=dtype).view()
    view.flags.writeable = False
    object.__setattr__(obj, name, view)
    return view


def measure_facts(measure) -> MeasureFacts:
    """``MEASURES[measure]``; anything else, a non-str included, raises ValueError."""
    if not isinstance(measure, str) or measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    return MEASURES[measure]


def check_values(values: np.ndarray, shape: tuple, measure: str) -> None:
    """Refuse ``values`` unless it has ``shape``, whose last two axes are n by
    n, and holds matrices of a known measure: symmetric when undirected, and
    MI off-diagonals at least 0. A stack of matrices along the first axes is
    checked as each of them would be on its own."""
    if values.shape != shape:
        raise ValueError(f"values must be {'x'.join(map(str, shape))}, got {values.shape}")
    if not measure_facts(measure).directed and not np.allclose(values, values.swapaxes(-1, -2), atol=1e-12, rtol=0.0):
        raise ValueError("undirected matrix is not symmetric")
    if measure == "mutual_information" and np.any(values[..., ~np.eye(shape[-1], dtype=bool)] < 0):
        raise ValueError("mutual information off-diagonals must be >= 0")


class Measured:
    """``directed`` and ``units`` of a result, read from its ``measure``'s entry in MEASURES."""

    @property
    def directed(self) -> bool:
        return MEASURES[self.measure].directed

    @property
    def units(self) -> str:
        return MEASURES[self.measure].units


@dataclass(frozen=True, eq=False)
class InteractionMatrix(Measured):
    asset_ids: tuple[str, ...]
    values: np.ndarray
    measure: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.asset_ids)
        check_values(freeze(self, "values"), (n, n), self.measure)

    @property
    def n(self) -> int:
        return len(self.asset_ids)

    def off_diagonal(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        return self.values[mask]
