"""Interaction networks for multi-asset time series.

Estimates static and time-resolved pairwise coupling with Pearson
correlation, mutual information, transfer entropy, and the linear drift
matrix of the multivariate increment-moment system, plus seeded synthetic
processes that serve as ground-truth oracles.
"""

from .discretize import JointHistogram, SymbolSequence, bin_series, joint_histogram
from .infoflow import (
    entropy,
    mi_matrix,
    mutual_information,
    surrogate_floor,
    te_floor_matrix,
    te_matrix,
    transfer_entropy,
)
from .ingest import AlignedPanel, PriceSeries, align, fetch_remote, load_csv, write_csv
from .kmdrift import DriftEstimate, increment_moments, solve_drift
from .matrices import InteractionMatrix
from .measures import compute_matrix
from .netout import InteractionGraph, emit, matrix_to_graph
from .stats import ReturnsMatrix, StatsSummary, compute_returns, correlation_matrix, describe
from .synth import gen_coupled_binary, gen_ou, gen_var1
from .windows import WindowedResult, WindowSpec, evolve, make_windows

__version__ = "0.1.0"

__all__ = [
    "AlignedPanel",
    "DriftEstimate",
    "InteractionGraph",
    "InteractionMatrix",
    "JointHistogram",
    "PriceSeries",
    "ReturnsMatrix",
    "StatsSummary",
    "SymbolSequence",
    "WindowSpec",
    "WindowedResult",
    "align",
    "bin_series",
    "compute_matrix",
    "compute_returns",
    "correlation_matrix",
    "describe",
    "emit",
    "entropy",
    "evolve",
    "fetch_remote",
    "gen_coupled_binary",
    "gen_ou",
    "gen_var1",
    "increment_moments",
    "joint_histogram",
    "load_csv",
    "make_windows",
    "matrix_to_graph",
    "mi_matrix",
    "mutual_information",
    "solve_drift",
    "surrogate_floor",
    "te_floor_matrix",
    "te_matrix",
    "transfer_entropy",
    "write_csv",
]
