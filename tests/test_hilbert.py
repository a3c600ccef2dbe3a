"""Ball geometry: projection identities, weighted norms, gap algebra."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectspde.errors import ConfigurationError, DimensionMismatchError
from reflectspde.hilbert import (
    SpaceSpec,
    inner_h,
    norm_h,
    norm_v,
    penalty_gap,
    project_ball,
)
from reflectspde.tamednse import build_lattice, h1_space


def unit_space(m):
    return SpaceSpec(
        h_weights=np.ones(m),
        v_weights=2.0 * np.ones(m),
    )


def weighted_space(m, rng):
    hw = rng.uniform(0.5, 3.0, size=m)
    return SpaceSpec(
        h_weights=hw,
        v_weights=hw * rng.uniform(1.0, 5.0, size=m),
    )


def test_weighted_inner_product_matches_direct_sum():
    rng = np.random.default_rng(3)
    space = weighted_space(9, rng)
    x = rng.standard_normal(9)
    y = rng.standard_normal(9)
    assert inner_h(space, x, y) == pytest.approx(np.sum(space.h_weights * x * y), abs=1e-14)
    assert norm_h(space, x) == pytest.approx(np.sqrt(np.sum(space.h_weights * x * x)), abs=1e-14)
    assert norm_v(space, x) == pytest.approx(np.sqrt(np.sum(space.v_weights * x * x)), abs=1e-14)


def test_projection_identities_random_batch():
    # Radial projection: pi(x) = x / max(|x|, 1).  The gap x - pi(x) has the
    # closed forms |gap| = (r-1)+, <x, gap> = r (r-1)+, |x|^2 <x, gap> = r^3 (r-1)+.
    rng = np.random.default_rng(11)
    for m in (1, 7, 64, 128):
        space = weighted_space(m, rng)
        x = rng.standard_normal((500, m)) * rng.uniform(0.1, 3.0, size=(500, 1))
        r = norm_h(space, x)
        pi = project_ball(space, x)
        gap, half_sq = penalty_gap(space, x)

        assert np.allclose(pi + gap, x, atol=1e-12)
        excess = np.maximum(r - 1.0, 0.0)
        assert np.max(np.abs(norm_h(space, gap) - excess)) < 1e-10
        assert np.max(np.abs(inner_h(space, x, gap) - r * excess)) < 1e-10
        lhs = r**2 * inner_h(space, x, gap)
        assert np.max(np.abs(lhs - r**3 * excess) / (1.0 + r**3 * excess)) < 1e-12
        assert np.max(np.abs(half_sq - 0.5 * excess**2)) < 1e-12


def test_projection_nonexpansive_and_idempotent():
    rng = np.random.default_rng(23)
    space = unit_space(16)
    x = rng.standard_normal((400, 16)) * 2.0
    y = rng.standard_normal((400, 16)) * 2.0
    px, py = project_ball(space, x), project_ball(space, y)
    assert np.all(norm_h(space, px - py) <= norm_h(space, x - y) + 1e-10)
    assert np.max(np.abs(project_ball(space, px) - px)) < 1e-12
    # projections land in the ball
    assert np.all(norm_h(space, px) <= 1.0 + 1e-12)


def test_projection_fixes_interior_points_exactly():
    rng = np.random.default_rng(5)
    space = unit_space(8)
    x = rng.standard_normal((50, 8))
    x *= 0.9 / np.maximum(norm_h(space, x), 1.0)[:, None]
    assert np.array_equal(project_ball(space, x), x)
    gap, half_sq = penalty_gap(space, x)
    assert np.array_equal(gap, np.zeros_like(x))
    assert np.array_equal(half_sq, np.zeros(50))


def test_variational_inequality_against_ball_points():
    # <x - phi, x - pi(x)> >= 0 for every phi in the ball.
    rng = np.random.default_rng(31)
    space = weighted_space(12, rng)
    x = rng.standard_normal((200, 12)) * 1.5
    phi = rng.standard_normal((200, 12))
    phi *= np.minimum(1.0, 0.999 / np.maximum(norm_h(space, phi), 1e-12))[:, None]
    gap, _ = penalty_gap(space, x)
    assert np.min(inner_h(space, x - phi, gap)) >= -1e-10


EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 128),
    seed=st.integers(0, 2**32 - 1),
    inside=st.floats(0.0, 1.0 - 1e-9),
    nudge=st.floats(0.0, 1e-6),
    far=st.floats(0.2, 8.0),
)
def test_projection_identities_on_generated_points(m, seed, inside, nudge, far):
    # Weights span 1e-3..1e3; the rows are one point inside the ball (its
    # radius at most 1 - 1e-9, which no reading error lifts to 1), one on
    # the sphere (as norm_h reads it), one just outside and one far outside
    # (radius 10^far, up to 1e8), then four points of the ball to test against.
    rng = np.random.default_rng(seed)
    space = SpaceSpec(h_weights=10.0 ** rng.uniform(-3.0, 3.0, m), v_weights=np.ones(m))
    z = rng.standard_normal((8, m))
    z /= norm_h(space, z)[:, None]
    x = z[:4] * np.array([inside, 1.0, 1.0 + nudge, 10.0**far])[:, None]
    phi = z[4:] * rng.uniform(0.0, 1.0, (4, 1))

    # norm_h sums m positive products and takes a root, so the radius it reads
    # is within e = (m + 4) eps / 2 of the true one, relatively.  Each check
    # below composes a few such readings with O(eps) roundings of the scale
    # 1/max(r, 1) and of the subtraction x - pi(x); tol = 2 e + 4 eps bounds
    # every composition to first order, times the size of the compared value.
    tol = (m + 8) * EPS
    r = norm_h(space, x)
    pi = project_ball(space, x)
    excess = np.maximum(r - 1.0, 0.0)

    # in the ball: no row of pi(x) reads above radius 1
    assert np.all(norm_h(space, pi) <= 1.0)
    # idempotent: pi(pi(x)) rescales only by that reading, which is 1 + O(tol)
    assert np.all(norm_h(space, project_ball(space, pi) - pi) <= tol)
    # nonexpansive on every pair; each projection is off by tol, each norm by e
    pts = np.concatenate([x, phi])
    ppts = project_ball(space, pts)
    dist = norm_h(space, pts[:, None] - pts[None])
    assert np.all(norm_h(space, ppts[:, None] - ppts[None]) <= dist + tol * (1.0 + dist))
    # a point that norm_h reads at radius <= 1 is scaled by 1/1: unchanged
    within = r <= 1.0
    assert within[0] and np.array_equal(pi[within], x[within])
    # the gap is radial with |x - pi x| = (r-1)+ and <x, x - pi x> = r (r-1)+;
    # x - pi x rounds each coefficient by eps |x_i|, so the errors scale with r
    gap = x - pi
    assert np.all(np.abs(norm_h(space, gap) - excess) <= tol * r)
    assert np.all(np.abs(inner_h(space, x, gap) - r * excess) <= tol * r * r)
    # <x - phi, x - pi x> = (1 - 1/r)(r^2 - <phi, x>) >= 0; a gap of rounding
    # size eps r meets |x - phi| <= r + 1
    cross = inner_h(space, x[:, None] - phi[None], gap[:, None])
    assert np.all(cross >= -tol * r[:, None] * (r[:, None] + 1.0))


# the H1 weights 1 + |k|^2 of the tamed 4^3 lattice, 2..49
TAMED_H1 = h1_space(build_lattice(4)).h_weights


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["unit", "sobolev", "tamed"]),
    m=st.one_of(st.integers(1, 64), st.sampled_from([256, TAMED_H1.size])),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="tamed", m=TAMED_H1.size, seed=0)
def test_project_ball_leaves_no_row_outside_the_ball(family, m, seed):
    # 256 rows at radii 0.5..3; m = 1456 with the tamed weights is the whole
    # tamed H1 space.  The clamp x * fl(1/r) has computed radius 1 + O(m eps)
    # and reads above 1 on up to a fifth of the rows at 64 coefficients;
    # project_ball scales those rows once by 1 / (the radius norm_h reads),
    # then by 1 - eps a pass until norm_h reads at most 1.  A moved row thus
    # moves by the read excess that it sheds, the rounding error of norm_h's
    # m-term sum, whose spread grows like sqrt(m) eps (probabilistic rounding
    # error analysis: Higham and Mary, SIAM J. Sci. Comput. 41(5), 2019).
    # The bound is 8 ulps at m = 64, scaled with that spread: 8 sqrt(m / 64)
    # = sqrt(m) ulps beyond.  Over 4 * 10^4 rows a row moved at most 6 ulps
    # at m = 64, 12 at 256 and 22 at 1456.
    rng = np.random.default_rng(seed)
    weights = {
        "unit": np.ones(m),
        "sobolev": 1.0 + ((np.arange(m) + 1) // 2) ** 2.0,
        "tamed": TAMED_H1 if m == TAMED_H1.size else rng.choice(TAMED_H1, m),
    }[family]
    space = SpaceSpec(h_weights=weights, v_weights=weights)
    z = rng.standard_normal((256, m))
    z /= norm_h(space, z)[:, None]
    x = z * rng.uniform(0.5, 3.0, (256, 1))
    r = norm_h(space, x)
    pi = project_ball(space, x)
    assert np.all(norm_h(space, pi) <= 1.0)
    inside = r <= 1.0
    assert np.array_equal(pi[inside], x[inside])
    clamp = x[~inside] * (1.0 / r[~inside])[:, None]
    ulps = max(8.0, np.sqrt(m))
    assert np.all(np.abs(pi[~inside] - clamp) <= ulps * np.spacing(np.abs(clamp)))


def test_boundary_point_is_fixed():
    space = unit_space(4)
    e = np.zeros(4)
    e[2] = 1.0
    assert np.array_equal(project_ball(space, e), e)


def test_v_norm_fn_override():
    m = 5
    space = SpaceSpec(
        h_weights=np.ones(m),
        v_weights=None,
        v_norm_fn=lambda c: np.sum(np.abs(c), axis=-1),
    )
    x = np.arange(1.0, 6.0)
    assert norm_v(space, x) == pytest.approx(15.0)


def test_shape_validation():
    space = unit_space(4)
    with pytest.raises(DimensionMismatchError):
        norm_h(space, np.zeros(5))
    with pytest.raises(DimensionMismatchError):
        inner_h(space, np.zeros(4), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        norm_h(space, np.float64(1.0))


def test_space_spec_validation():
    with pytest.raises(ConfigurationError):
        SpaceSpec(-np.ones(4), np.ones(4))
    with pytest.raises(ConfigurationError):
        SpaceSpec(np.ones(4), np.ones(3))
    with pytest.raises(ConfigurationError):
        SpaceSpec(np.ones(4), None)  # no V norm at all


def test_norm_of_tiny_and_huge_rows_is_rescaled():
    rng = np.random.default_rng(8)
    space = weighted_space(6, rng)
    x = rng.uniform(0.5, 2.0, size=(3, 6))
    want = norm_h(space, x)
    for scale in (1e-185, 1e200):
        got = norm_h(space, scale * x)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert np.allclose(got, scale * want, rtol=1e-12, atol=0.0)
    # rows whose sums neither underflow nor overflow keep the one contraction
    mixed = np.stack([x[0], 1e-185 * x[1], np.zeros(6), np.full(6, np.inf)])
    got = norm_h(space, mixed)
    assert got[0] == want[0] and got[2] == 0.0 and got[3] == np.inf
    assert got[1] == pytest.approx(1e-185 * want[1], rel=1e-12)
    assert norm_h(space, 1e-185 * x[0]) == pytest.approx(1e-185 * want[0], rel=1e-12)


def test_total_variation_sees_tiny_increments():
    from reflectspde.localtime import total_variation

    rng = np.random.default_rng(9)
    space = weighted_space(5, rng)
    dL = rng.standard_normal((4, 2, 5))
    tv = total_variation(space, 1e-185 * dL)
    assert np.all(tv > 0)
    assert np.allclose(tv, 1e-185 * total_variation(space, dL), rtol=1e-12, atol=0.0)
