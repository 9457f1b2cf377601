"""The N-by-N interaction matrix shared by every estimator.

Orientation convention for directed measures: ``values[i][j]`` is the effect
of (or flow from) asset ``j`` on asset ``i``. The convention is recorded in
``params["orientation"]`` of every directed matrix.

Every frozen value type stores its arrays through ``freeze``, as read-only
views: a caller's array is neither copied nor frozen, and a later write to
it shows through the object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MEASURES = ("correlation", "mutual_information", "transfer_entropy", "km_drift")
UNITS = ("bits", "dimensionless", "per-step")

ORIENTATION = "values[i][j] = flow from asset j into asset i"


def freeze(obj, name: str, dtype=np.float64) -> np.ndarray:
    """Set field ``name`` of the frozen dataclass ``obj`` to a read-only
    ``dtype`` view of its value, converted only if of another dtype."""
    view = np.asarray(getattr(obj, name), dtype=dtype).view()
    view.flags.writeable = False
    object.__setattr__(obj, name, view)
    return view


def check_values(values: np.ndarray, shape: tuple, measure: str, directed: bool, units: str) -> None:
    """Refuse ``values`` unless it has ``shape``, whose last two axes are n by
    n, and holds matrices of a known measure and units: symmetric when
    undirected, and MI off-diagonals at least 0. A stack of matrices along
    the first axes is checked as each of them would be on its own."""
    if values.shape != shape:
        raise ValueError(f"values must be {'x'.join(map(str, shape))}, got {values.shape}")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if units not in UNITS:
        raise ValueError(f"unknown units {units!r}")
    if not directed and not np.allclose(values, values.swapaxes(-1, -2), atol=1e-12, rtol=0.0):
        raise ValueError("undirected matrix is not symmetric")
    if measure == "mutual_information" and np.any(values[..., ~np.eye(shape[-1], dtype=bool)] < 0):
        raise ValueError("mutual information off-diagonals must be >= 0")


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    asset_ids: tuple[str, ...]
    values: np.ndarray
    measure: str
    directed: bool
    units: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.asset_ids)
        check_values(freeze(self, "values"), (n, n), self.measure, self.directed, self.units)

    @property
    def n(self) -> int:
        return len(self.asset_ids)

    def off_diagonal(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        return self.values[mask]
