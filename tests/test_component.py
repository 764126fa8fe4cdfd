import numpy as np
import pytest
from hypothesis import given, strategies as st

from pstransport import component
from pstransport.component import MapComponent, NotInvertibleError
from pstransport.splines import KnotVector, PiecewisePolynomial, SplineBasis


def make_component(raw=None):
    non = SplineBasis(KnotVector(np.linspace(-2, 2, 5), 3))
    mon = SplineBasis(KnotVector(np.linspace(-2, 2, 6), 3))
    rng = np.random.default_rng(3)
    beta_non = rng.standard_normal(non.num_basis)
    if raw is None:
        raw = np.concatenate([[-1.0], rng.uniform(0.1, 1.0, mon.num_basis - 1)])
    return MapComponent([0], 1, [non], mon, beta_non, raw)


def expansion(comp, rows):
    """Reference value per row: non(x0) @ beta_non + mon(x1) @ cumsum(raw)."""
    return np.array([comp.non_bases[0].eval(x0) @ comp.beta_non
                     + comp.mon_basis.eval(x1) @ np.cumsum(comp.beta_mon_raw)
                     for x0, x1 in rows])


def test_cumulative_reparametrization():
    comp = make_component(np.array([-2.0, 1.0, 0.5, 0.0, 2.0, 0.25, 1.0, 0.5]))
    assert np.array_equal(comp.beta_mon, [-2.0, -1.0, -0.5, -0.5, 1.5, 1.75, 2.75, 3.25])


def test_eval_is_additive():
    comp = make_component()
    rows = np.array([[0.4, -0.7]])
    mono = comp.mon_basis.eval(rows[0, 1]) @ np.cumsum(comp.beta_mon_raw)
    assert comp.eval_many(rows)[0] == pytest.approx(
        comp.parent_term_many(rows)[0] + mono
    )


def test_monotone_in_own_variable():
    comp = make_component()
    xs = np.linspace(-4, 4, 200)
    vals = comp.eval_many(np.column_stack([np.full(xs.size, 0.3), xs]))
    assert np.all(np.diff(vals) > 0)
    assert np.all(comp.ddx(xs) > 0)


def test_negative_increments_rejected():
    with pytest.raises(ValueError):
        make_component(raw=np.array([0.0, 1.0, -0.1, 1, 1, 1, 1, 1.0]))


def test_size_mismatch_rejected():
    non = SplineBasis(KnotVector(np.linspace(-2, 2, 5), 3))
    mon = SplineBasis(KnotVector(np.linspace(-2, 2, 6), 3))
    with pytest.raises(ValueError):
        MapComponent([0], 1, [non], mon, np.zeros(3), np.zeros(mon.num_basis))


def test_inversion_round_trip():
    comp = make_component()
    rng = np.random.default_rng(5)
    rows = rng.uniform(-3, 3, (50, 2))
    x = comp.invert_many(rows, comp.eval_many(rows))
    assert x == pytest.approx(rows[:, 1], abs=1e-8)


def test_inversion_in_tails():
    comp = make_component()
    rows = np.zeros((2, 2))
    z = np.array([-50.0, 50.0])
    x = comp.invert_many(rows, z)
    resid = np.abs(comp.eval_many(np.column_stack([rows[:, 0], x])) - z)
    assert np.all(resid < 1e-9 * np.abs(z))
    assert np.all(np.abs(x) > 2.0)  # beyond the knot range
    # the single-row form is the same solve
    assert comp.invert_in_last(rows[1], z[1]) == x[1]


def test_flat_component_not_invertible():
    raw = np.zeros(8)
    comp = make_component(raw=raw)
    with pytest.raises(NotInvertibleError):
        comp.invert_many(np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(NotInvertibleError):
        comp.invert_many(np.zeros((3, 2)), np.array([0.5, 0.0, -0.5]))
    # the error names the member farthest out of reach
    with pytest.raises(NotInvertibleError, match="member 1, target 50,"):
        comp.invert_many(np.zeros((3, 2)), np.array([5.0, 50.0, 10.0]))


def test_unconverged_inversion_names_a_member(monkeypatch):
    monkeypatch.setattr(component, "INVERT_MAX_ITER", 0)
    comp = make_component()
    rows = np.random.default_rng(6).uniform(-1, 1, (10, 2))
    with pytest.raises(NotInvertibleError,
                       match=r"did not reach tolerance: member \d+, target"):
        comp.invert_many(rows, comp.eval_many(rows))


def test_vectorized_paths_match_scalar():
    comp = make_component()
    rng = np.random.default_rng(7)
    rows = rng.uniform(-3, 3, (40, 2))
    ev = comp.eval_many(rows)
    assert ev == pytest.approx(expansion(comp, rows), abs=1e-12)
    xs = comp.invert_many(rows, ev)
    assert np.max(np.abs(xs - rows[:, 1])) < 1e-8


def test_invert_many_extreme_targets():
    comp = make_component()
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1, 1, (20, 2))
    z = np.concatenate([rng.uniform(-200, 200, 10), rng.uniform(-2, 2, 10)])
    xs = comp.invert_many(rows, z)
    resid = np.abs(comp.eval_many(np.column_stack([rows[:, 0], xs])) - z)
    assert np.max(resid / np.maximum(1, np.abs(z))) < 1e-8


def test_invert_many_steep_function():
    # large increments make the monotone term steep; inversion should
    # still satisfy the residual contract at the resolvable scale
    rng = np.random.default_rng(13)
    raw = np.concatenate([[-500.0], rng.uniform(50, 300, 7)])
    comp = make_component(raw=raw)
    rows = rng.uniform(-2, 2, (30, 2))
    z = comp.eval_many(rows)
    xs = comp.invert_many(rows, z)
    assert np.max(np.abs(xs - rows[:, 1])) < 1e-6


def test_invert_many_next_to_zero_increment():
    # the zero increment leaves a nearly flat stretch left of a steep one;
    # a Newton step kept only inside the bracket bounces between its ends
    # here for every target in about [-2.0722, -2.0712] and gives up
    raw = np.array([-5, 0.1, 0.3, 0.4, 0.2, 0.5, 0.7, 0, 2.7, 1.2, 1.1, 1.4, 1.7, 0.3])
    comp = MapComponent([], 0, [], SplineBasis(KnotVector(np.linspace(-3, 1, 12), 3)),
                        np.zeros(0), raw)
    z = np.linspace(-2.0722, -2.0712, 11)
    xs = comp.invert_many(np.zeros((z.size, 1)), z)
    assert np.max(np.abs(comp.eval_many(xs[:, None]) - z)) < 1e-9


def test_invert_many_retires_rows_as_they_converge(monkeypatch):
    """4000 rows over a flat stretch, a steep one next to a zero increment and
    both tails: rows meet the stop test at different iterations, each
    iteration evaluates only the rows still open, the final check evaluates
    only the tail rows and the rows that did not meet the residual test, and
    every row meets the residual contract."""
    non = SplineBasis(KnotVector(np.linspace(-2, 2, 6), 3))
    mon = SplineBasis(KnotVector(np.linspace(-3, 1, 12), 3))
    raw = np.array([-5, 0.1, 0.3, 0.4, 0.2, 0.5, 0.7, 0, 2.7, 1.2, 1.1, 1e3, 0, 0.3])
    comp = MapComponent([0], 1, [non], mon, np.linspace(-1, 1, non.num_basis), raw)
    rng = np.random.default_rng(17)
    rows = np.column_stack([rng.uniform(-3, 3, 4000), rng.uniform(-4, 2, 4000)])
    z = comp.eval_many(rows)
    z[:100] = comp.parent_term_many(rows[:100]) + rng.uniform(-2.0722, -2.0712, 100)
    sizes = []
    evaluate = PiecewisePolynomial.__call__

    def counted(pp, x, slope=False):
        if pp is comp._mon:
            sizes.append(x.size)
        return evaluate(pp, x, slope)

    monkeypatch.setattr(PiecewisePolynomial, "__call__", counted)
    x = comp.invert_many(rows, z)
    newton = sizes[:-1]
    t = z - comp.parent_term_many(rows)
    low, high = comp._mon.end_values
    unmet = np.abs(evaluate(comp._mon, x) - t) > component.INVERT_TOL * np.maximum(1, np.abs(z))
    assert sizes[-1] == np.count_nonzero((t < low) | (t > high) | unmet) < 4000
    assert all(a >= b for a, b in zip(newton, newton[1:]))
    assert np.count_nonzero(np.diff(newton) < 0) >= 2
    resid = np.abs(comp.eval_many(np.column_stack([rows[:, 0], x])) - z)
    assert np.all(resid <= residual_contract(comp, x, z))


def test_invert_many_at_knot_values_plateau_and_ends():
    """Targets exactly at the values at the knots (the breaks of the Newton
    start table), on a flat knot span, between the start points and at both
    ends of the knot range meet the residual contract."""
    # increments 2-4 are zero: the four cubic coefficients over the second
    # knot span are equal, so the monotone term is flat there
    comp = make_component(np.array([-1.0, 0.5, 0.0, 0.0, 0.0, 0.3, 0.8, 0.2]))
    f = comp._mon
    knots = comp.mon_basis.knots.real
    plateau = f(np.linspace(knots[1], knots[2], 7))
    assert np.all(plateau == plateau[0])
    values = np.concatenate([f(knots), f.end_values, plateau,
                             f(np.linspace(knots[0], knots[-1], 301))])
    rows = np.random.default_rng(19).uniform(-3, 3, (values.size, 2))
    z = comp.parent_term_many(rows) + values
    x = comp.invert_many(rows, z)
    assert np.all((x >= knots[0]) & (x <= knots[-1]))
    resid = np.abs(comp.eval_many(np.column_stack([rows[:, 0], x])) - z)
    assert np.all(resid <= residual_contract(comp, x, z))


def test_ddx_is_the_increment_form_bit_for_bit():
    comp = make_component(np.array([-1.0, 0.5, 0.0, 0.0, 2.0, 0.25, 0.0, 0.5]))
    kn = comp.mon_basis.knots
    x = np.concatenate([np.linspace(-5, 5, 1001), kn.real, np.nextafter(kn.real, np.inf)])
    want = comp.mon_basis.eval_deriv_increments(x) @ comp.beta_mon_raw
    assert np.array_equal(comp.ddx(x), want)
    assert np.all(want >= 0) and np.any(want == 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    comp = make_component()
    rows = np.random.default_rng(8).uniform(-1, 1, (5, 2))
    z = comp.eval_many(rows)
    broken = rows.copy()
    broken[3, 0] = bad
    with pytest.raises(ValueError, match="non-finite parent coordinate: member 3"):
        comp.invert_many(broken, z)
    with pytest.raises(ValueError, match="non-finite coordinate: member 3"):
        comp.eval_many(broken)
    broken = rows.copy()
    broken[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite coordinate: member 2"):
        comp.eval_many(broken)
    # the own coordinate is the unknown: whatever it holds is ignored
    assert np.array_equal(comp.invert_many(broken, z), comp.invert_many(rows, z))
    z[1] = bad
    with pytest.raises(ValueError, match="non-finite target: member 1"):
        comp.invert_many(rows, z)


# -- property tests on the batch path ----------------------------------------

SCALES = [1.0, 1e-6, 300.0]


@st.composite
def monotone_components(draw, flat_tail=None):
    """Random component with positive tail slopes, or one flat tail.

    Coefficients are scaled by 1, 1e-6 (near-flat) or 300 (steep); some
    interior increments are zero. For clamped cubic knots the left and
    right tail slopes are proportional to the first and last increment.
    """
    scale = draw(st.sampled_from(SCALES))
    lo = draw(st.floats(-3.0, 1.0))
    width = draw(st.floats(0.5, 6.0))
    non = SplineBasis(KnotVector(np.linspace(lo, lo + width, draw(st.integers(4, 9))), 3))
    mon = SplineBasis(KnotVector(np.linspace(lo, lo + width, draw(st.integers(4, 12))), 3))
    num_incr = mon.num_basis - 1
    incr = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=num_incr,
                                  max_size=num_incr)))
    zeros = draw(st.lists(st.booleans(), min_size=num_incr - 2, max_size=num_incr - 2))
    incr[1:-1][np.array(zeros, dtype=bool)] = 0.0
    if flat_tail == "left":
        incr[0] = 0.0
    elif flat_tail == "right":
        incr[-1] = 0.0
    level = draw(st.floats(-5.0, 5.0))
    beta_non = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=non.num_basis,
                                      max_size=non.num_basis)))
    raw = scale * np.concatenate([[level], incr])
    return MapComponent([0], 1, [non], mon, scale * beta_non, raw)


def residual_contract(comp, x, z, tol=1e-10):
    """Bound that invert_many promises on |S(x) - z|."""
    resolvable = np.abs(comp.ddx(x)) * np.abs(x) * 2e-16
    return 100 * (tol * np.maximum(1.0, np.abs(z)) + resolvable)


@given(comp=monotone_components(), seed=st.integers(0, 2 ** 32 - 1))
def test_invert_many_meets_residual_contract(comp, seed):
    rng = np.random.default_rng(seed)
    kn = comp.mon_basis.knots
    rows = np.column_stack([rng.uniform(kn.first - 1, kn.last + 1, 24),
                            rng.uniform(kn.first, kn.last, 24)])
    z = comp.eval_many(rows)
    z[:4] = [1e3, -1e3, 1e3, -1e3]
    x = comp.invert_many(rows, z)
    resid = np.abs(comp.eval_many(np.column_stack([rows[:, 0], x])) - z)
    assert np.all(resid <= residual_contract(comp, x, z))


@given(side=st.sampled_from(["left", "right"]), data=st.data())
def test_flat_tail_beyond_range_not_invertible(side, data):
    comp = data.draw(monotone_components(flat_tail=side))
    kn = comp.mon_basis.knots
    edge = kn.first if side == "left" else kn.last
    margin = np.max(np.abs(comp.beta_mon_raw)) + np.max(np.abs(comp.beta_non))
    row = np.array([[0.0, edge]])
    z = comp.eval_many(row) + (margin if side == "right" else -margin)
    where = "left tail; target below" if side == "left" else "right tail; target above"
    with pytest.raises(NotInvertibleError, match=f"flat {where} range: member 0, target"):
        comp.invert_many(row, z)
