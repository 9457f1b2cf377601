"""Kernel backend selection.

``linear_recurrence`` is the compiled loop when the extension imports and the
pure-Python fallback otherwise; both produce bitwise-identical results.
``joint_counts`` is ``np.bincount`` on either backend.
"""

from ._pykernels import joint_counts

try:
    from ._ckernels import linear_recurrence

    BACKEND = "c"
except ImportError:
    from ._pykernels import linear_recurrence

    BACKEND = "python"

__all__ = ["BACKEND", "linear_recurrence", "joint_counts"]
