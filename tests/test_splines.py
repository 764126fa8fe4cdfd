import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstransport.splines import (
    DegenerateDimensionError,
    KnotVector,
    PenaltyMatrix,
    PiecewisePolynomial,
    SplineBasis,
    make_knots,
    make_penalty,
)


class DenseBasis(SplineBasis):
    """Reference: the full-width Cox-de Boor recursion over every basis
    function at every degree, with the affine tails of SplineBasis."""

    def _levels(self, x):
        """Cox-de Boor recursion; returns per-degree basis tables for interior x."""
        tp = self.knots.padded
        d = self.degree
        x = np.asarray(x, dtype=float)
        # degree-0 indicators on half-open intervals, closed at the last real knot
        B = ((x[:, None] >= tp[:-1]) & (x[:, None] < tp[1:])).astype(float)
        at_end = x >= self.knots.last
        if np.any(at_end):
            B[at_end] = 0.0
            last_span = np.max(np.nonzero(np.diff(tp) > 0)[0])
            B[at_end, last_span] = 1.0
        levels = [B]
        for k in range(1, d + 1):
            prev = levels[-1]
            n = prev.shape[1] - 1
            left_den = tp[k : k + n] - tp[:n]
            right_den = tp[k + 1 : k + 1 + n] - tp[1 : 1 + n]
            with np.errstate(divide="ignore", invalid="ignore"):
                left = np.where(
                    left_den > 0, (x[:, None] - tp[:n]) / left_den, 0.0
                )
                right = np.where(
                    right_den > 0, (tp[k + 1 : k + 1 + n] - x[:, None]) / right_den, 0.0
                )
            levels.append(left * prev[:, :n] + right * prev[:, 1 : n + 1])
        return levels

    def _interior(self, x):
        return self._levels(x)[-1]

    def _increments(self, x):
        d = self.degree
        n = self.num_basis
        if d == 0:
            return np.zeros((len(x), n + 1))
        tp = self.knots.padded
        den = tp[d : d + n + 1] - tp[: n + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(den > 0, d / den, 0.0)
        return scale * self._levels(x)[d - 1]


@pytest.fixture
def basis():
    return SplineBasis(KnotVector(np.linspace(-2.0, 2.0, 7), degree=3))


def test_knot_padding_repeats_boundaries():
    kv = KnotVector(np.array([0.0, 1.0, 2.0, 3.0]), degree=3)
    assert np.array_equal(kv.padded, [0, 0, 0, 0, 1, 2, 3, 3, 3, 3])
    assert kv.num_basis == 6


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector(np.array([0.0, 0.0, 1.0]), degree=3)
    with pytest.raises(ValueError):
        KnotVector(np.array([1.0]), degree=3)
    with pytest.raises(ValueError):
        KnotVector(np.array([0.0, 1.0]), degree=-1)


def test_make_knots_cube_root_rule():
    rng = np.random.default_rng(0)
    kv = make_knots(rng.standard_normal(1000), degree=3)
    assert kv.real.size == 12  # ceil(1000^(1/3)) + 2
    x = rng.standard_normal(27)
    assert make_knots(x).real.size == 5  # exact cube root, no off-by-one


def test_make_knots_quantile_range():
    x = np.linspace(0.0, 10.0, 101)
    kv = make_knots(x)
    assert kv.first == pytest.approx(np.quantile(x, 0.1))
    assert kv.last == pytest.approx(np.quantile(x, 0.9))


def test_make_knots_degenerate():
    with pytest.raises(DegenerateDimensionError):
        make_knots(np.ones(50))
    x = np.zeros(100)
    x[:3] = 1.0  # quantiles coincide even though not all equal
    with pytest.raises(DegenerateDimensionError):
        make_knots(x)
    with pytest.raises(ValueError):
        make_knots(np.arange(5.0))


@pytest.mark.parametrize("num_real_knots", [1, 0, -3])
def test_make_knots_rejects_fewer_than_two_knots(num_real_knots):
    x = np.random.default_rng(0).standard_normal(50)
    assert make_knots(x, 3, 2).real.size == 2
    with pytest.raises(ValueError, match="at least 2 real knots"):
        make_knots(x, 3, num_real_knots)


def test_partition_of_unity(basis):
    x = np.linspace(-2.0, 2.0, 513)
    vals = basis.eval(x)
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(vals >= 0)


def test_derivative_matches_central_differences(basis):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.9, 1.9, 100)
    h = 1e-6
    fd = (basis.eval(x + h) - basis.eval(x - h)) / (2 * h)
    an = basis.eval_deriv(x)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(an - fd) / denom) < 1e-6


def test_affine_tails(basis):
    for xs in (np.array([-5.0, -4.0, -3.0]), np.array([3.0, 4.0, 5.0])):
        vals = basis.eval(xs)
        second = np.diff(vals, n=2, axis=0)
        assert np.max(np.abs(second)) < 1e-10


def test_tail_continuity(basis):
    eps = 1e-9
    for edge in (basis.knots.first, basis.knots.last):
        lo, hi = basis.eval(edge - eps), basis.eval(edge + eps)
        assert np.max(np.abs(hi - lo)) < 1e-6


def test_greville_reproduces_identity(basis):
    coef = basis.greville()
    x = np.linspace(-4.0, 4.0, 201)  # includes the extrapolated tails
    assert np.max(np.abs(basis.eval(x) @ coef - x)) < 1e-10
    assert np.max(np.abs(basis.eval_deriv(x) @ coef - 1.0)) < 1e-10


def test_scalar_and_array_eval_agree(basis):
    x = np.array([-2.5, 0.3, 2.5])
    batch = basis.eval(x)
    for i, xi in enumerate(x):
        assert np.array_equal(basis.eval(xi), batch[i])


def test_nan_input_rejected(basis):
    with pytest.raises(ValueError):
        basis.eval(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        basis.eval_deriv_increments(np.array([0.0, np.nan]))


def test_derivative_increment_form_is_exact():
    """``eval_deriv_increments(x) @ raw`` is the derivative of the expansion
    with coefficients cumsum(raw): nonnegative entries, so exactly 0 where
    the increments around x are zero, and constant in the affine tails."""
    basis = SplineBasis(KnotVector(np.linspace(-2.0, 2.0, 9), degree=3))
    raw = np.random.default_rng(3).uniform(0.1, 1.0, basis.num_basis)
    raw[0] = 3.7
    raw[3:7] = 0.0
    x = np.linspace(-3.0, 3.0, 2001)
    table = basis.eval_deriv_increments(x)
    assert table.shape == (x.size, basis.num_basis)
    assert np.all(table >= 0)
    assert np.all(table[:, 0] == 0)
    fused = basis.eval_deriv(x) @ np.cumsum(raw)
    exact = table @ raw
    assert np.max(np.abs(exact - fused)) < 5e-14
    assert np.all(exact >= 0)
    # the span between knots 2 and 3 (x in [-1, -0.5]) only sees increments 3..6
    flat = (x >= -1.0) & (x <= -0.5)
    assert np.all(exact[flat] == 0)
    for edge, tail in ((-2.0, x < -2.0), (2.0, x > 2.0)):
        assert np.all(table[tail] == basis.eval_deriv_increments(edge))
    assert np.array_equal(basis.eval_deriv_increments(0.3),
                          basis.eval_deriv_increments(np.array([0.3]))[0])


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("spacing", ["uniform", "random"])
def test_local_evaluation_matches_full_recursion(degree, spacing):
    """The local de Boor tables equal the full-width recursion exactly, at
    every real knot, at both ends, inside and in both tails."""
    rng = np.random.default_rng(10 * degree + (spacing == "random"))
    for num_real in (2, 3, degree + 2, 9):
        if spacing == "uniform":
            real = np.linspace(-1.5, 2.0, num_real)
        else:
            real = np.sort(rng.uniform(-3.0, 3.0, num_real))
        kv = KnotVector(real, degree)
        local, dense = SplineBasis(kv), DenseBasis(kv)
        width = real[-1] - real[0]
        x = np.concatenate([
            real, np.nextafter(real, -np.inf), np.nextafter(real, np.inf),
            rng.uniform(real[0], real[-1], 40),
            rng.uniform(real[0] - width, real[0], 5),
            rng.uniform(real[-1], real[-1] + width, 5),
        ])
        for name in ("eval", "eval_deriv", "eval_deriv_increments"):
            got, want = getattr(local, name)(x), getattr(dense, name)(x)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (name, num_real)
            for xi in x[::3]:
                assert np.array_equal(getattr(local, name)(xi), getattr(dense, name)(xi))


@st.composite
def expansions(draw):
    """A basis of degree 0-4 on uniform or random real knots, and coefficients."""
    degree = draw(st.integers(0, 4))
    num_real = draw(st.integers(2, 12))
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-2, 1e2))
    if draw(st.booleans()):
        gaps = np.ones(num_real - 1)
    else:
        gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=num_real - 1,
                                      max_size=num_real - 1)))
    real = lo + width * np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    basis = SplineBasis(KnotVector(real, degree))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    # no subnormal coefficients: they carry too few digits for a relative test
    entry = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-100 else 0.0)
    coef = scale * np.array(draw(st.lists(entry, min_size=basis.num_basis,
                                          max_size=basis.num_basis)))
    return basis, coef


@settings(max_examples=300, deadline=None)
@given(expansions())
def test_piecewise_polynomial_matches_basis(case):
    """Value and slope of the pp form equal ``eval(x) @ coef`` and
    ``eval_deriv(x) @ coef`` at every knot and next to it, inside the spans
    and in both tails, to 1e-12 relative to max|coef|, scaled by the size of
    the table row that each B-form sum runs over: sum_j |N_j(x)| for the
    value (1 inside the knots, growing in the tails) and sum_j W_j(x) of the
    increment form for the slope (about degree / span width)."""
    basis, coef = case
    real = basis.knots.real
    width = real[-1] - real[0]
    inside = real[:-1] + np.array([0.1, 0.37, 0.5, 0.83])[:, None] * np.diff(real)
    x = np.concatenate([
        real, np.nextafter(real, -np.inf), np.nextafter(real, np.inf), inside.ravel(),
        real[0] - width * np.array([1e-3, 0.5, 3.0]),
        real[-1] + width * np.array([1e-3, 0.5, 3.0]),
    ])
    value, slope = PiecewisePolynomial(basis, coef)(x, slope=True)
    size = np.max(np.abs(coef))
    value_tol = 1e-12 * size * np.maximum(1.0, np.abs(basis.eval(x)).sum(axis=1))
    slope_tol = 1e-12 * size * np.maximum(1.0, basis.eval_deriv_increments(x).sum(axis=1))
    assert np.all(np.abs(value - basis.eval(x) @ coef) <= value_tol)
    assert np.all(np.abs(slope - basis.eval_deriv(x) @ coef) <= slope_tol)
    assert np.array_equal(PiecewisePolynomial(basis, coef)(x), value)


def test_piecewise_polynomial_tails_are_affine_and_exactly_flat():
    """The tails continue the boundary value with the boundary slope, and a
    tail whose two end coefficients are equal has slope exactly 0."""
    basis = SplineBasis(KnotVector(np.linspace(-2.0, 2.0, 7), 3))
    coef = np.cumsum(np.r_[-1.3, 0.0, np.full(basis.num_basis - 3, 0.4), 0.0])
    pp = PiecewisePolynomial(basis, coef)
    assert pp.end_slopes == (0.0, 0.0)
    # x at the last real knot is on the right tail; at the first, inside
    x = np.array([-1e6, -3.0, 2.0, 3.0, 1e6])
    value, slope = pp(x, slope=True)
    assert np.array_equal(value, np.repeat(pp.end_values, [2, 3]))
    assert np.all(slope == 0.0)
    steep = PiecewisePolynomial(basis, np.arange(basis.num_basis) ** 2.0)
    value, slope = steep(x, slope=True)
    lo, hi = steep.end_slopes
    assert lo > 0 and hi > 0
    assert np.array_equal(slope, [lo, lo, hi, hi, hi])
    assert value[1] == steep.end_values[0] - lo
    assert value[2] == steep.end_values[1]
    assert value[3] == steep.end_values[1] + hi


def test_penalty_null_space():
    pen = make_penalty(10, order=2)
    ones = np.ones(10)
    lin = np.arange(10.0)
    assert np.max(np.abs(pen.gram @ ones)) < 1e-14
    assert np.max(np.abs(pen.gram @ lin)) < 1e-12
    quad = np.arange(10.0) ** 2
    assert quad @ pen.gram @ quad > 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_partition_of_unity_everywhere(x):
    basis = SplineBasis(KnotVector(np.linspace(-2.0, 2.0, 7), degree=3))
    vals = basis.eval(x)
    # inside the knots the basis sums to one; in the affine tails the sum
    # stays one because the extension preserves value and slope
    assert abs(vals.sum() - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=3))
def test_basis_count_matches_knots(num_real, degree):
    kv = KnotVector(np.linspace(0.0, 1.0, num_real), degree)
    basis = SplineBasis(kv)
    assert basis.eval(0.5).size == kv.num_basis == num_real + degree - 1


def test_penalty_shapes_and_validation():
    pen = PenaltyMatrix(8, order=2)
    assert pen.matrix.shape == (6, 8)
    assert pen.gram.shape == (8, 8)
    with pytest.raises(ValueError):
        PenaltyMatrix(3, order=3)
    with pytest.raises(ValueError):
        PenaltyMatrix(5, order=0)
