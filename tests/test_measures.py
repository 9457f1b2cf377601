import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infodrift.measures import compute_matrix
from infodrift.stats import ReturnsMatrix

MEASURES = ("correlation", "mutual_information", "transfer_entropy", "km_drift")
# correlation and the drift solve go through BLAS/LAPACK reductions whose
# blocking depends on the column order; 1e-12 is the repository's tolerance
# for reordered float64 arithmetic (fast paths against the per-pair oracles)
TOL = dict(rtol=1e-12, atol=1e-12)


@st.composite
def panels(draw):
    """A seeded (T, N) returns panel, sometimes rounded so that columns hold ties."""
    n = draw(st.integers(2, 5))
    t = draw(st.integers(30, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(t, n))
    if draw(st.booleans()):
        values = np.round(values, 1)
    values = values * draw(st.sampled_from([0.01, 1.0, 10.0]))
    for k in range(n):
        assume(np.ptp(values[:, k]) > 0)
    return values


def _matrices(values, bins, measures=MEASURES):
    returns = ReturnsMatrix(asset_ids=tuple(f"A{k}" for k in range(values.shape[1])), values=values, kind="log")
    return {m: compute_matrix(returns, m, bins=bins).values for m in measures}


@given(panels(), st.data(), st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_permuting_assets_permutes_every_matrix(values, data, bins):
    n = values.shape[1]
    perm = np.array(data.draw(st.permutations(range(n))))
    base = _matrices(values, bins)
    permuted = _matrices(values[:, perm], bins)
    expected = {m: base[m][np.ix_(perm, perm)] for m in MEASURES}
    for m in MEASURES:
        np.testing.assert_allclose(permuted[m], expected[m], err_msg=m, **TOL)
    # every TE pair is an ordered pair computed on its own
    assert np.array_equal(permuted["transfer_entropy"], expected["transfer_entropy"])
    # MI sums its joint histogram in row-major order, so a pair is bit-equal
    # only where the permutation keeps the two columns in the same order
    kept = np.less.outer(perm, perm) == np.less.outer(np.arange(n), np.arange(n))
    assert np.array_equal(permuted["mutual_information"][kept], expected["mutual_information"][kept])


TRANSFORMS = {
    "affine": lambda v: 2.0 * v + 16.0,
    "exp": np.exp,
    "cube": lambda v: v**3,
    "arctan": np.arctan,
    "sinh": np.sinh,
}


@given(panels(), st.data(), st.sampled_from(sorted(TRANSFORMS)), st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_increasing_transform_keeps_mi_and_te(values, data, transform, bins):
    k = data.draw(st.integers(0, values.shape[1] - 1))
    with np.errstate(over="ignore"):
        column = TRANSFORMS[transform](values[:, k])
    assume(np.all(np.isfinite(column)))
    # a monotone float function that merges no two values is strictly increasing on them
    assume(len(np.unique(column)) == len(np.unique(values[:, k])))
    changed = values.copy()
    changed[:, k] = column
    entropic = ("mutual_information", "transfer_entropy")
    base, after = _matrices(values, bins, entropic), _matrices(changed, bins, entropic)
    for m in entropic:
        assert np.array_equal(after[m], base[m]), m
