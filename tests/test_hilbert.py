"""Ball geometry: projection identities, weighted norms, gap algebra."""

import numpy as np
import pytest

from reflectspde.errors import ConfigurationError, DimensionMismatchError
from reflectspde.hilbert import (
    SpaceSpec,
    inner_h,
    norm_h,
    norm_v,
    penalty_gap,
    project_ball,
)


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


def test_boundary_point_is_fixed():
    space = unit_space(4)
    e = np.zeros(4)
    e[2] = 1.0
    assert np.array_equal(project_ball(space, e), e)


def test_embedding_const_quadratic_case():
    space = unit_space(6)
    assert space.embedding_const == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 6))
    assert np.all(norm_v(space, x) >= space.embedding_const * norm_h(space, x) - 1e-12)


def test_v_norm_fn_override():
    m = 5
    space = SpaceSpec(
        h_weights=np.ones(m),
        v_weights=None,
        v_norm_fn=lambda c: np.sum(np.abs(c), axis=-1),
    )
    x = np.arange(1.0, 6.0)
    assert norm_v(space, x) == pytest.approx(15.0)
    assert np.isnan(space.embedding_const)


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
