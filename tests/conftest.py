import numpy as np
import pytest

from hypcloud import BallPoint, Curvature, clip_to_ball, generate_dataset
from hypcloud.poincare import BALL_EPS


@pytest.fixture(scope="session")
def unit_curv():
    return Curvature(-1.0)


@pytest.fixture(scope="session")
def curv014():
    return Curvature(-0.14)


@pytest.fixture(scope="session")
def small_manifest():
    """Tiny dataset for fast trainer tests."""
    return generate_dataset(n_categories=2, objects_per_category=3,
                            parts_per_object=3, points_whole=256, seed=5)


def project_to_ball(x, curv, eps=BALL_EPS):
    """A BallPoint at `x`, clipped onto the margin radius if it lies outside."""
    return BallPoint(clip_to_ball(np.asarray(x, dtype=np.float64), curv, eps), curv)


def random_ball_points(rng, n, dim, curv, max_frac=0.95):
    """Uniform-direction points with radius up to max_frac of the ball."""
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = rng.uniform(0.0, max_frac * curv.ball_radius, size=(n, 1))
    return direction * radii
