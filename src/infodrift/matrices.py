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


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    asset_ids: tuple[str, ...]
    values: np.ndarray
    measure: str
    directed: bool
    units: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        values = freeze(self, "values")
        n = len(self.asset_ids)
        if values.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {values.shape}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.units not in UNITS:
            raise ValueError(f"unknown units {self.units!r}")
        if not self.directed and not np.allclose(values, values.T, atol=1e-12, rtol=0.0):
            raise ValueError("undirected matrix is not symmetric")
        if self.measure == "mutual_information":
            off = ~np.eye(n, dtype=bool)
            if np.any(values[off] < 0):
                raise ValueError("mutual information off-diagonals must be >= 0")

    def __reduce__(self):
        # rebuilt through __init__, so a matrix from a fan_out worker is checked and read-only too
        return InteractionMatrix, (self.asset_ids, self.values, self.measure, self.directed, self.units, self.params)

    @property
    def n(self) -> int:
        return len(self.asset_ids)

    def off_diagonal(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        return self.values[mask]
