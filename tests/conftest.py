import numpy as np
import pytest

from coorbit2d import GroupSpec, diagonal


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_invertible(rng, n=1, min_det=0.1):
    """Random well-conditioned invertible 2x2 matrices."""
    out = []
    while len(out) < n:
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) >= min_det:
            out.append(m)
    return out[0] if n == 1 else out


def diagonal_spec_from_lines(a1, a2):
    """Diagonal-family spec whose dual-orbit complement is the lines {a1, a2}."""
    directions = np.array([[np.cos(a1), np.cos(a2)], [np.sin(a1), np.sin(a2)]])
    return GroupSpec(diagonal(), np.linalg.inv(directions).T)
