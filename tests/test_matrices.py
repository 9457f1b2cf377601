import numpy as np
import pytest

from infodrift.discretize import JointHistogram, SymbolSequence
from infodrift.ingest import AlignedPanel, PriceSeries
from infodrift.kmdrift import DriftEstimate
from infodrift.matrices import InteractionMatrix
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowedResult, WindowSpec

DAYS = (737425, 737426, 737427)


def windowed(values=np.ones((1, 2, 2)), bounds=np.array([[0, 3]]), edges=None):
    return WindowedResult("mutual_information", ("A", "B"), values, bounds, (("a", "b"),),
                          WindowSpec("segmented", segments=1), edges=edges)


# Each value type's array fields: the field, its stored dtype, a valid value,
# and a builder that puts the value given into that field.
CASES = {
    "PriceSeries.days": ("days", np.int64, np.array(DAYS),
                         lambda a: PriceSeries("A", days=a, prices=np.ones(3))),
    "PriceSeries.prices": ("prices", np.float64, np.ones(3),
                           lambda a: PriceSeries("A", days=np.array(DAYS), prices=a)),
    "AlignedPanel.prices": ("prices", np.float64, np.ones((3, 2)),
                            lambda a: AlignedPanel(("A", "B"), np.array(DAYS), a)),
    "AlignedPanel.days": ("days", np.int64, np.array(DAYS),
                          lambda a: AlignedPanel(("A", "B"), a, np.ones((3, 2)))),
    "ReturnsMatrix.values": ("values", np.float64, np.zeros((4, 2)),
                             lambda a: ReturnsMatrix(("A", "B"), a, "log")),
    "ReturnsMatrix.days": ("days", np.int64, np.array(DAYS),
                           lambda a: ReturnsMatrix(("A", "B"), np.zeros((3, 2)), "log", a)),
    "SymbolSequence.symbols": ("symbols", np.int64, np.array([0, 1, 1, 0]),
                               lambda a: SymbolSequence(a, np.array([0.0, 0.5, 1.0]))),
    "SymbolSequence.edges": ("edges", np.float64, np.array([0.0, 0.5, 1.0]),
                             lambda a: SymbolSequence(np.array([0, 1]), a)),
    "JointHistogram.counts": ("counts", np.int64, np.array([[1, 2], [3, 4]]),
                              lambda a: JointHistogram(a)),
    "InteractionMatrix.values": ("values", np.float64, np.eye(2),
                                 lambda a: InteractionMatrix(("A", "B"), a, "correlation")),
    "DriftEstimate.psi": ("psi", np.float64, np.eye(2),
                          lambda a: DriftEstimate(a, 1.0, np.eye(2), 1.0)),
    "DriftEstimate.moment_matrix": ("moment_matrix", np.float64, np.eye(2),
                                    lambda a: DriftEstimate(np.eye(2), 1.0, a, 1.0)),
    "WindowedResult.values": ("values", np.float64, np.ones((1, 2, 2)), lambda a: windowed(values=a)),
    "WindowedResult.bounds": ("bounds", np.int64, np.array([[0, 3]]), lambda a: windowed(bounds=a)),
    "WindowedResult.edges": ("edges", np.float64, np.zeros((1, 2, 3)), lambda a: windowed(edges=a)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_value_types_store_read_only_views_and_leave_the_callers_array_writeable(case):
    name, dtype, value, build = case
    caller = value.astype(dtype)
    stored = getattr(build(caller), name)
    assert caller.flags.writeable
    assert not stored.flags.writeable
    assert np.shares_memory(stored, caller)  # a view, not a copy

    other = value.astype(np.int32 if dtype == np.int64 else np.float32)
    converted = getattr(build(other), name)
    assert converted.dtype == dtype and np.array_equal(converted, value)
    assert other.flags.writeable and not converted.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: JointHistogram(np.zeros((2, 2))), "total must be positive"),
    (lambda: SymbolSequence(np.array([0]), np.array([0.0])), "edges must be 1-D with at least 2 entries"),
    (lambda: SymbolSequence(np.array([0]), np.zeros((2, 2))), "edges must be 1-D with at least 2 entries"),
    (lambda: SymbolSequence(np.array([0]), np.array([0.0, 1.0, 0.5])), "edges must be non-decreasing"),
    (lambda: SymbolSequence(np.array([0, 2]), np.array([0.0, 0.5, 1.0])), "symbols out of range"),
], ids=["no-sample", "one-edge", "2d-edges", "decreasing-edges", "symbol-at-bins"])
def test_value_types_refuse_what_their_arrays_contradict(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
