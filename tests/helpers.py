"""Shared test fixtures: deterministic rigs, naive determinant oracle."""

import itertools
from fractions import Fraction

from rigidview.cameras import CameraRig
from rigidview.linalg import Mat, rank


def standard_rig():
    """Identity camera plus a unit-translated copy; the simplest exact rig."""
    a1 = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    a2 = Mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return CameraRig([a1, a2])


def random_camera_mat(rng, height=20):
    while True:
        m = Mat([[rng.randrange(height) for _ in range(4)] for _ in range(3)])
        if rank(m).rank == 3:
            return m


def random_rig(rng, n=3, height=20):
    while True:
        rig = CameraRig([random_camera_mat(rng, height) for _ in range(n)])
        if rig.general_position.ok:
            return rig


def random_world_point(rng, bound=50):
    while True:
        coords = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 10)) for _ in range(3))
        return coords + (Fraction(1),)


def naive_det(m):
    """Permutation-expansion determinant; an oracle independent of elimination."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m[i, perm[i]]
        total += term
    return total


def count_calls(monkeypatch, module, name, calls=None):
    """Replace ``module.name`` by a wrapper that appends each call's
    positional arguments to ``calls`` (a new list unless one is given)."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
