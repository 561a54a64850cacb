"""Seeded random generation, randomized verification experiments, numeric
dimension estimates, and constrained refinement.

Every operation here is a pure function of (seed, config): sampling uses
``random.Random`` exclusively, sub-seeds are derived per sample, and reports
round-trip to canonical JSON byte-for-byte (the wall-clock field is the one
excluded, deliberately, from the reproducibility contract).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cameras import (
    Camera,
    CameraRig,
    CofactorPass,
    ProjectivePoint,
    RigidMotion,
    apply_left_action,
    apply_right_action,
    cayley_rotation,
    forward_map,
)
from .constraints import (
    Family,
    _check_positive,
    constraint_system,
    coplanar_residuals,
    rigid_pair_by_equations,
    rigid_pair_oracle,
    squared_distance_discriminant,
    triangle_inequality_ok,
)
from .linalg import FLOAT, Mat, det, invert, rank
from .polyspace import generator_count, octic_span, random_rank_prime
from .triangulation import assemble_b, is_triangulable


class SamplingError(RuntimeError):
    """A bounded redraw loop was exhausted."""


class InfeasibleScenarioError(ValueError):
    """The requested constraint configuration has no real points."""


class UnstableDimensionError(RuntimeError):
    """Jacobian ranks disagreed across base points."""

    def __init__(self, ranks):
        super().__init__(f"unstable dimension estimate: ranks {sorted(set(ranks))}")
        self.ranks = tuple(ranks)


def _as_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


MAX_REDRAWS = 1000


def random_camera(seed, height: int = 20, signed: bool = False) -> Mat:
    """Random integer 3x4 camera matrix, redrawn until it has rank 3.

    Entries are uniform over [0, height) by default; ``signed=True`` draws
    from [-height, height] instead.
    """
    if height < 2:
        raise ValueError("height must be at least 2")
    rng = _as_rng(seed)
    for _ in range(MAX_REDRAWS):
        if signed:
            m = Mat([[rng.randint(-height, height) for _ in range(4)] for _ in range(3)])
        else:
            m = Mat([[rng.randrange(height) for _ in range(4)] for _ in range(3)])
        if Camera(m).rank == 3:
            return m
    raise SamplingError("could not draw a rank-3 camera")


def random_rig(seed, n: int, height: int = 20, signed: bool = False) -> CameraRig:
    """Random rig whose focal points pass the general-position checks."""
    if n < 2:
        raise ValueError("need at least two cameras")
    rng = _as_rng(seed)
    for _ in range(MAX_REDRAWS):
        rig = CameraRig([random_camera(rng, height, signed) for _ in range(n)])
        if rig.general_position.ok:
            return rig
    raise SamplingError("could not draw a general-position rig")


def random_affine_point(seed, bound: int = 100) -> ProjectivePoint:
    """Random rational world point in the affine chart (last coordinate 1);
    numerators and denominators stay within ``bound``."""
    rng = _as_rng(seed)
    coords = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                   for _ in range(3))
    return ProjectivePoint(coords + (Fraction(1),))


def stereo_direction(p, q) -> tuple:
    """Rational point of the unit sphere: (2p, 2q, p^2+q^2-1)/(p^2+q^2+1)."""
    p, q = Fraction(p), Fraction(q)
    s = p * p + q * q + 1
    return (2 * p / s, 2 * q / s, (p * p + q * q - 1) / s)


# Height of the rationals the pair samplers draw: the first point's
# coordinates and the sphere parameters have numerators in
# [-SAMPLE_BOUND, SAMPLE_BOUND] and denominators in [1, SAMPLE_BOUND].
SAMPLE_BOUND = 100


def sample_unit_pair(seed):
    """Pair of affine rational world points at exact unit distance."""
    return sample_scaled_pair(seed, 1)


def sample_scaled_pair(seed, t):
    """Pair at exact distance |t| (squared distance t^2)."""
    rng = _as_rng(seed)
    x = random_affine_point(rng, SAMPLE_BOUND)
    p = Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, SAMPLE_BOUND))
    q = Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, SAMPLE_BOUND))
    direction = stereo_direction(p, q)
    y = tuple(a + Fraction(t) * b for a, b in zip(x.coords[:3], direction)) + (Fraction(1),)
    return x, ProjectivePoint(y)


def _canonical_tuple(points) -> tuple:
    return tuple(ProjectivePoint(pt.canonical()) for pt in points)


def _sample_images(rig: CameraRig, rng, draw, what: str):
    """The redraw loop of the pair samplers: calls ``draw(rng)`` for a world
    pair (x, y), or None to redraw, until both points project and both image
    tuples have a :class:`CofactorPass` witness (are triangulable); returns
    (u, v, x, y) with integer-cleared image tuples.  Every call of ``draw``
    uses up one of ``MAX_REDRAWS``."""
    for _ in range(MAX_REDRAWS):
        pair = draw(rng)
        if pair is None:
            continue
        x, y = pair
        try:
            u = _canonical_tuple(forward_map(rig, x))
            v = _canonical_tuple(forward_map(rig, y))
        except ValueError:
            continue
        # forward images are consistent: only the witness can be missing
        if CofactorPass(rig, u).witness is not None and CofactorPass(rig, v).witness is not None:
            return u, v, x, y
    raise SamplingError(f"could not sample a {what}")


def sample_member_pair(rig: CameraRig, seed):
    """Unit-distance world pair whose images are both triangulable; returns
    (u, v, x, y) with integer-cleared image tuples."""
    return _sample_images(rig, _as_rng(seed), sample_unit_pair, "triangulable member pair")


def sample_nonmember_pair(rig: CameraRig, seed):
    """World pair at distance != 1 (images lie in the consistency variety
    but violate the unit-distance constraint)."""
    def draw(rng):
        t = Fraction(rng.randint(2, 10), rng.randint(1, 3))
        return None if t == 1 else sample_scaled_pair(rng, t)
    return _sample_images(rig, _as_rng(seed), draw, "nonmember pair")


class Scene:
    """A rig with world data and the derived image data.

    With zero noise the image tuples are the exact forward images; with
    positive ``sigma`` the images are floats with Gaussian noise added to the
    normalized affine image coordinates.
    """

    __slots__ = ("rig", "world_points", "image_tuples", "sigma", "seed")

    def __init__(self, rig, world_points, image_tuples, sigma=0.0, seed=0):
        self.rig = rig
        self.world_points = tuple(world_points)
        self.image_tuples = tuple(image_tuples)
        self.sigma = sigma
        self.seed = seed

    def __repr__(self):
        return (f"Scene(points={len(self.world_points)}, sigma={self.sigma}, "
                f"seed={self.seed})")


def make_scene(rig: CameraRig, world_points, sigma: float = 0.0, seed=0) -> Scene:
    rng = _as_rng(seed)
    tuples = []
    for x in world_points:
        images = forward_map(rig, x)
        if sigma == 0.0:
            tuples.append(tuple(images))
            continue
        noisy = []
        for pt in images:
            w = [float(c) for c in pt.coords]
            if abs(w[2]) < 1e-12:
                raise SamplingError("image point at infinity; cannot add affine noise")
            ax, ay = w[0] / w[2], w[1] / w[2]
            noisy.append(ProjectivePoint((ax + rng.gauss(0.0, sigma),
                                          ay + rng.gauss(0.0, sigma), 1.0)))
        tuples.append(tuple(noisy))
    return Scene(rig, world_points, tuples, sigma, seed if isinstance(seed, int) else 0)


# ---------------------------------------------------------------------------
# numeric dimension estimates


SCENARIO_RIGID_PAIR = "rigid_pair"
SCENARIO_COPLANAR_4 = "coplanar_4"
SCENARIO_PAIRWISE_3 = "pairwise_3"


def _unit_direction_float(p, q):
    s = p * p + q * q + 1.0
    return np.array([2 * p / s, 2 * q / s, (p * p + q * q - 1.0) / s])


def _orthonormal_complement(w):
    axis = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(w, axis))) > 0.9:
        axis = np.array([1.0, 0.0, 0.0])
    m1 = np.cross(w, axis)
    m1 = m1 / np.linalg.norm(m1)
    m2 = np.cross(w, m1)
    return m1, m2


def _camera_arrays(rig):
    return [np.array([[float(e) for e in row] for row in cam.matrix.data])
            for cam in rig.cameras]


def _project_affine_all(cams, points):
    """Float image vectors of several world points under every camera array."""
    return [a @ np.append(x, 1.0) for x in points for a in cams]


def _scenario_map(rig, scenario, distances):
    cams = _camera_arrays(rig)
    if scenario == SCENARIO_RIGID_PAIR:
        def f(theta):
            x = theta[:3]
            y = x + _unit_direction_float(theta[3], theta[4])
            return _project_affine_all(cams, [x, y])
        def base(rng):
            return np.array([rng.uniform(-1, 1) for _ in range(3)]
                            + [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)])
        return f, base
    if scenario == SCENARIO_COPLANAR_4:
        def f(theta):
            alpha, beta, c = theta[0], theta[1], theta[2]
            n_vec = np.array([math.cos(alpha) * math.cos(beta),
                              math.sin(alpha) * math.cos(beta),
                              math.sin(beta)])
            e1, e2 = _orthonormal_complement(n_vec)
            p0 = c * n_vec
            pts = [p0 + theta[3 + 2 * i] * e1 + theta[4 + 2 * i] * e2 for i in range(4)]
            return _project_affine_all(cams, pts)
        def base(rng):
            return np.array([rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                             rng.uniform(0.8, 1.6)]
                            + [rng.uniform(-1, 1) for _ in range(8)])
        return f, base
    if scenario == SCENARIO_PAIRWISE_3:
        d12, d13, d23 = map(float, distances)
        _check_positive(d12, d13, d23)
        xloc = (d12 * d12 + d13 * d13 - d23 * d23) / (2 * d12)
        ysq = d13 * d13 - xloc * xloc
        if ysq < -1e-12:
            raise InfeasibleScenarioError(
                "pairwise distances violate the triangle inequality; no real points")
        yloc = math.sqrt(max(ysq, 0.0))
        def f(theta):
            x1 = theta[:3]
            w = _unit_direction_float(theta[3], theta[4])
            m1, m2 = _orthonormal_complement(w)
            x2 = x1 + d12 * w
            phi = theta[5]
            x3 = x1 + xloc * w + yloc * (math.cos(phi) * m1 + math.sin(phi) * m2)
            return _project_affine_all(cams, [x1, x2, x3])
        def base(rng):
            return np.array([rng.uniform(-1, 1) for _ in range(3)]
                            + [rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7),
                               rng.uniform(0, 2 * math.pi)])
        return f, base
    raise ValueError(f"unknown scenario {scenario}")


# numeric_dimension: feasible base points whose Jacobian ranks must agree,
# the central-difference step, and the relative rank tolerance.
DIMENSION_BASE_POINTS = 5
DIMENSION_STEP = 1e-6
DIMENSION_RANK_TOL = 1e-6


def _chart_jacobian_rank(f, theta):
    base_imgs = f(theta)
    charts = []
    for w in base_imgs:
        c = int(np.argmax(np.abs(w)))
        if abs(w[c]) < 1e-9:
            return None
        charts.append(c)

    def g(th):
        out = []
        for w, c in zip(f(th), charts):
            if abs(w[c]) < 1e-12:
                return None
            out.extend(w[i] / w[c] for i in range(3) if i != c)
        return np.array(out)

    k = len(theta)
    cols = []
    for j in range(k):
        e = np.zeros(k)
        e[j] = DIMENSION_STEP
        plus = g(theta + e)
        minus = g(theta - e)
        if plus is None or minus is None:
            return None
        cols.append((plus - minus) / (2 * DIMENSION_STEP))
    jac = Mat(np.column_stack(cols).tolist())
    return rank(jac, DIMENSION_RANK_TOL).rank


def numeric_dimension(rig: CameraRig, scenario: str, distances: Optional[Sequence] = None,
                      seed=0) -> int:
    """Dimension of the image of a constrained configuration space.

    Parametrizes the scenario, pushes it through every camera into affine
    image charts, and returns the Jacobian rank (central differences) at
    :data:`DIMENSION_BASE_POINTS` random feasible base points.  All ranks
    must agree, otherwise :class:`UnstableDimensionError` is raised.  Only
    the pairwise scenario takes, and needs, ``distances`` (d12, d13, d23).
    """
    if rig.backend != FLOAT:
        raise ValueError("numeric dimension estimates need a float rig")
    if (distances is None) == (scenario == SCENARIO_PAIRWISE_3):
        raise ValueError(f"the {SCENARIO_PAIRWISE_3} scenario, and only it, takes distances")
    rng = _as_rng(seed)
    f, base = _scenario_map(rig, scenario, distances)
    ranks = []
    attempts = 0
    while len(ranks) < DIMENSION_BASE_POINTS and attempts < 20 * DIMENSION_BASE_POINTS:
        attempts += 1
        r = _chart_jacobian_rank(f, base(rng))
        if r is not None:
            ranks.append(r)
    if len(ranks) < DIMENSION_BASE_POINTS:
        raise SamplingError("could not find enough feasible base points")
    if len(set(ranks)) != 1:
        raise UnstableDimensionError(ranks)
    return ranks[0]


# ---------------------------------------------------------------------------
# constrained refinement


class RefineResult:
    __slots__ = ("x", "y", "residual", "initial_residual", "iterations", "converged")

    def __init__(self, x, y, residual, initial_residual, iterations, converged):
        self.x = tuple(x)
        self.y = tuple(y)
        self.residual = residual
        self.initial_residual = initial_residual
        self.iterations = iterations
        self.converged = converged

    def __repr__(self):
        return (f"RefineResult(residual={self.residual:.3e}, "
                f"initial={self.initial_residual:.3e}, iters={self.iterations})")


def _reprojection_residuals(cams, obs_u, obs_v, x, y):
    out = []
    for a, (ox, oy) in zip(cams, obs_u):
        h = a @ np.append(x, 1.0)
        out.extend((h[0] / h[2] - ox, h[1] / h[2] - oy))
    for a, (ox, oy) in zip(cams, obs_v):
        h = a @ np.append(y, 1.0)
        out.extend((h[0] / h[2] - ox, h[1] / h[2] - oy))
    return np.array(out)


def _linear_triangulate(cams, obs):
    rows = []
    for a, (ox, oy) in zip(cams, obs):
        rows.append(ox * a[2] - a[0])
        rows.append(oy * a[2] - a[1])
    m = np.array(rows)
    _, _, vt = np.linalg.svd(m)
    h = vt[-1]
    if abs(h[3]) < 1e-12:
        h = h + vt[-2]
    return h[:3] / h[3]


def _rotation_to(direction):
    d = direction / np.linalg.norm(direction)
    m1, m2 = _orthonormal_complement(d)
    return np.column_stack([m1, m2, -d])


# refine_rigid_pair: the step length below which it has converged, the
# initial damping, and the central-difference step of the Jacobian.
REFINE_STEP_TOL = 1e-10
REFINE_DAMPING = 1e-3
REFINE_FD_STEP = 1e-7


def refine_rigid_pair(rig: CameraRig, obs_u, obs_v, max_iter: int = 100) -> RefineResult:
    """Local minimization of the summed squared reprojection error of a
    point pair subject to unit distance.

    The pair is parametrized as (X, direction chart), so the constraint
    holds throughout; damped Gauss-Newton steps are accepted only when the
    cost decreases, so the returned residual never exceeds the residual of
    the projected initial estimate.  At return the difference vector is
    rescaled to unit length once more.
    """
    if rig.backend != FLOAT:
        raise ValueError("refinement runs on the float backend")
    if not len(obs_u) == len(obs_v) == rig.n:
        raise ValueError(f"refinement needs {rig.n} observations per side, "
                         f"not {len(obs_u)} and {len(obs_v)}")
    cams = _camera_arrays(rig)
    obs_u = [tuple(map(float, o)) for o in obs_u]
    obs_v = [tuple(map(float, o)) for o in obs_v]
    x0 = _linear_triangulate(cams, obs_u)
    y0 = _linear_triangulate(cams, obs_v)
    d = y0 - x0
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        d = np.array([0.0, 0.0, 1.0])
        norm = 1.0
    d = d / norm
    rot = _rotation_to(d)

    def unpack(theta):
        x = theta[:3]
        y = x + rot @ _unit_direction_float(theta[3], theta[4])
        return x, y

    def cost_vec(theta):
        x, y = unpack(theta)
        return _reprojection_residuals(cams, obs_u, obs_v, x, y)

    theta = np.concatenate([x0, [0.0, 0.0]])
    r = cost_vec(theta)
    initial_cost = float(r @ r)
    cost = initial_cost
    lam = REFINE_DAMPING
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        jac = np.empty((len(r), 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = REFINE_FD_STEP
            jac[:, j] = (cost_vec(theta + e) - cost_vec(theta - e)) / (2 * REFINE_FD_STEP)
        grad = jac.T @ r
        hess = jac.T @ jac
        stepped = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(hess + lam * np.eye(5), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = theta + delta
            rc = cost_vec(cand)
            cc = float(rc @ rc)
            if cc < cost:
                theta, r, cost = cand, rc, cc
                lam = max(lam / 3, 1e-12)
                stepped = True
                break
            lam *= 10
        if not stepped:
            break
        if np.linalg.norm(delta) < REFINE_STEP_TOL:
            converged = True
            break
    x, y = unpack(theta)
    d = y - x
    y = x + d / np.linalg.norm(d)
    final = _reprojection_residuals(cams, obs_u, obs_v, x, y)
    final_cost = float(final @ final)
    if final_cost > initial_cost:
        x, y = unpack(np.concatenate([x0, [0.0, 0.0]]))
        d = y - x
        y = x + d / np.linalg.norm(d)
        final_cost = initial_cost
        converged = False
    return RefineResult(x, y, final_cost, initial_cost, iterations, converged)


# ---------------------------------------------------------------------------
# experiments


class ExperimentReport:
    """Deterministic record of one randomized verification run."""

    __slots__ = ("tag", "config", "samples", "passed", "failures", "details",
                 "seed", "wall_clock_s")

    def __init__(self, tag, config, samples, passed, failures, details, seed,
                 wall_clock_s):
        self.tag = tag
        self.config = config
        self.samples = samples
        self.passed = passed
        self.failures = failures
        self.details = details
        self.seed = seed
        self.wall_clock_s = wall_clock_s

    def to_json(self) -> dict:
        return {"experiment": self.tag, "config": self.config,
                "samples": self.samples, "passed": self.passed,
                "failures": self.failures, "details": self.details,
                "seed": self.seed, "wall_clock_s": self.wall_clock_s}

    def canonical_json(self) -> str:
        """Byte-reproducible form: everything except the wall clock."""
        doc = self.to_json()
        doc.pop("wall_clock_s")
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"ExperimentReport({self.tag}, passed={self.passed}, samples={self.samples})"


def _sub_seed(seed, index) -> str:
    return f"{seed}:{index}"


def _ns_list(config, default):
    n = config.get("n", default)
    return [n] if isinstance(n, int) else list(n)


def _sample_rigs(config, seed, count, ns=(2,)):
    """The per-sample loop of the rig-drawing experiments: yields
    (idx, n, rng, rig) for idx < count, where n cycles through ``ns``, rng
    is seeded from (seed, idx), and rig is the first thing drawn from it."""
    for idx in range(count):
        n = ns[idx % len(ns)]
        rng = random.Random(_sub_seed(seed, idx))
        yield idx, n, rng, random_rig(rng, n, config.get("height", 20))


def _exp_vanish(config, seed):
    ns = _ns_list(config, [2, 3, 4])
    samples = config.get("samples", 12)
    failures = []
    per_n = {str(n): 0 for n in ns}
    for idx, n, rng, rig in _sample_rigs(config, seed, samples, ns):
        u, v, _, _ = sample_member_pair(rig, rng)
        per_n[str(n)] += 1
        octics = constraint_system(rig, Family.OCTIC_FULL)
        bad = sum(1 for val in octics.evaluate(u, v) if val != 0)
        bilin = constraint_system(rig, Family.MULTIVIEW_BILINEAR)
        bad += sum(1 for val in bilin.evaluate(u, v) if val != 0)
        if n >= 3:
            tril = constraint_system(rig, Family.MULTIVIEW_TRILINEAR)
            bad += sum(1 for val in tril.evaluate(u, v) if val != 0)
        if bad:
            failures.append({"sample": idx, "n": n, "nonzero": bad})
    return samples, failures, {"per_n": per_n}


def _exp_separate(config, seed):
    samples = config.get("samples", 20)
    failures = []
    for idx, n, rng, rig in _sample_rigs(config, seed, samples, _ns_list(config, [2])):
        u, v, _, _ = sample_nonmember_pair(rig, rng)
        nine = constraint_system(rig, Family.OCTIC_NINE)
        some_nonzero = any(val != 0 for val in nine.evaluate(u, v))
        oracle = rigid_pair_oracle(rig, u, v)
        if not some_nonzero or oracle:
            failures.append({"sample": idx, "n": n,
                             "nonzero_found": some_nonzero, "oracle": oracle})
    return samples, failures, {}


def _mixed_corpus_case(rig, rng, kind):
    if kind == 0:
        u, v, _, _ = sample_member_pair(rig, rng)
    elif kind == 1:
        u, v, _, _ = sample_nonmember_pair(rig, rng)
    else:
        u, _, _, _ = sample_member_pair(rig, rng)
        v = _canonical_tuple((rig.epipole(0, 1), rig.epipole(1, 0)))
    return u, v


def _exp_thm_equiv(config, seed, family=Family.OCTIC_FULL, default_ns=(2, 3)):
    ns = _ns_list(config, list(default_ns))
    samples = config.get("samples", 30)
    failures = []
    kinds_per_n = {2: (0, 1, 2), 3: (0, 1), 4: (0, 1)}
    for idx, n, rng, rig in _sample_rigs(config, seed, samples, ns):
        kinds = kinds_per_n.get(n, (0, 1))
        kind = kinds[(idx // len(ns)) % len(kinds)]
        u, v = _mixed_corpus_case(rig, rng, kind)
        eq = rigid_pair_by_equations(rig, u, v, family)
        oracle = rigid_pair_oracle(rig, u, v)
        if eq != oracle:
            failures.append({"sample": idx, "n": n, "kind": kind,
                             "equations": eq, "oracle": oracle})
    return samples, failures, {"family": family.value}


def _exp_cor34(config, seed):
    config = dict(config)
    config.setdefault("n", 3)
    config.setdefault("samples", 20)
    return _exp_thm_equiv(config, seed, family=Family.OCTIC_SIXTEEN, default_ns=(3,))


def _exp_span(config, seed):
    rigs = config.get("rigs", config.get("samples", 1))
    failures, details = [], {"dims": []}
    for idx, _, rng, rig in _sample_rigs(config, seed, rigs):
        dims = octic_span(rig, random_rank_prime(rng))
        details["dims"].append({"rig": idx, "span": dims["span"], "quotient": dims["quotient"],
                                "modulus": dims["modulus"], "failure_bound": dims["failure_bound"]})
        if (dims["span"], dims["quotient"]) != (126, 9):
            failures.append({"rig": idx, "span": dims["span"], "quotient": dims["quotient"]})
    return rigs, failures, details


def _exp_counts(config, seed):
    expected = {2: 11, 3: 177, 4: 1176, 5: 4940}
    failures = []
    for n, want in expected.items():
        got = generator_count(n).total
        if got != want:
            failures.append({"n": n, "total": got, "expected": want})
    for n in range(2, 13):
        gc = generator_count(n)
        if sum(c.count for c in gc.classes) != gc.total:
            failures.append({"n": n, "reason": "class sum mismatch"})
    return len(expected) + 11, failures, {"totals": {str(n): generator_count(n).total
                                                     for n in expected}}


def _exp_epipole(config, seed):
    rigs = config.get("rigs", config.get("samples", 5))
    probes = config.get("probes", 10)
    failures, checked, skipped = [], 0, 0
    for idx, _, _, rig in _sample_rigs(config, seed, rigs):
        ep = _canonical_tuple((rig.epipole(0, 1), rig.epipole(1, 0)))
        b = assemble_b(rig, 0, 1, ep[0], ep[1])
        if rank(b.mat).rank != 4:
            failures.append({"rig": idx, "reason": "epipole pair rank != 4"})
            continue
        if is_triangulable(rig, ep):
            failures.append({"rig": idx, "reason": "epipole pair triangulable"})
            continue
        octics = constraint_system(rig, Family.OCTIC_FULL)
        for p_idx in range(probes):
            x = random_affine_point(random.Random(_sub_seed(seed, (idx, p_idx))), 50)
            try:
                u = _canonical_tuple(forward_map(rig, x))
            except ValueError:
                skipped += 1
                continue
            if u[0] == ep[0] and u[1] == ep[1]:
                skipped += 1
                continue
            checked += 1
            bb = assemble_b(rig, 0, 1, u[0], u[1])
            if rank(bb.mat).rank != 5:
                failures.append({"rig": idx, "probe": p_idx, "reason": "variety point not rank 5"})
            if any(val != 0 for val in octics.evaluate(u, ep)):
                failures.append({"rig": idx, "probe": p_idx,
                                 "reason": "octic nonzero on epipole component"})
    return rigs, failures, {"probes_checked": checked, "probes_skipped": skipped}


def _exp_group_action(config, seed):
    samples = config.get("samples", 5)
    failures = []
    for idx, _, rng, rig in _sample_rigs(config, seed, samples):
        rot = cayley_rotation(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        motion = RigidMotion.from_parts(rot, tuple(rng.randint(-5, 5) for _ in range(3)))
        moved = apply_right_action(rig, motion)
        n_inv = invert(motion.matrix)
        x_probe = random_affine_point(rng, 20)
        left = forward_map(moved, x_probe)
        right = forward_map(rig, ProjectivePoint(motion.matrix.apply(x_probe.coords)))
        if any(a.coords != b.coords for a, b in zip(left, right)):
            failures.append({"sample": idx, "reason": "map identity failed"})
            continue
        for kind, sampler in (("member", sample_member_pair), ("nonmember", sample_nonmember_pair)):
            u, v, x, y = sampler(rig, random.Random(_sub_seed(seed, (idx, kind))))
            um = _canonical_tuple(forward_map(moved, ProjectivePoint(n_inv.apply(x.coords))))
            vm = _canonical_tuple(forward_map(moved, ProjectivePoint(n_inv.apply(y.coords))))
            if (rigid_pair_by_equations(moved, um, vm, Family.OCTIC_NINE)
                    != rigid_pair_by_equations(rig, u, v, Family.OCTIC_NINE)):
                failures.append({"sample": idx, "kind": kind, "reason": "right action verdict"})
            mats = [Mat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
                    for _ in range(rig.n)]
            mats = [m if det(m) != 0 else Mat.identity(3) for m in mats]
            moved_left = apply_left_action(rig, mats)
            ul = _canonical_tuple(ProjectivePoint(m.apply(p.coords)) for m, p in zip(mats, u))
            vl = _canonical_tuple(ProjectivePoint(m.apply(p.coords)) for m, p in zip(mats, v))
            if (rigid_pair_by_equations(moved_left, ul, vl, Family.OCTIC_NINE)
                    != rigid_pair_by_equations(rig, u, v, Family.OCTIC_NINE)):
                failures.append({"sample": idx, "kind": kind, "reason": "left action verdict"})
    return samples, failures, {}


def _sample_coplanar_points(rng):
    p0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
    e1 = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
    e2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
    pts = []
    for _ in range(4):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        coords = tuple(a + s * b + t * c for a, b, c in zip(p0, e1, e2)) + (Fraction(1),)
        pts.append(ProjectivePoint(coords))
    return pts


def _exp_coplanar(config, seed):
    samples = config.get("samples", 5)
    failures, skipped = [], 0
    for idx, _, rng, rig in _sample_rigs(config, seed, samples):
        pts = _sample_coplanar_points(rng)
        generic = [random_affine_point(rng, 20) for _ in range(4)]
        try:
            tuples4 = [_canonical_tuple(forward_map(rig, p)) for p in pts]
            tuples_g = [_canonical_tuple(forward_map(rig, p)) for p in generic]
        except ValueError:
            skipped += 1
            continue
        if any(val != 0 for val in coplanar_residuals(rig, tuples4)):
            failures.append({"sample": idx, "reason": "coplanar residual nonzero"})
        if all(val == 0 for val in coplanar_residuals(rig, tuples_g)):
            failures.append({"sample": idx, "reason": "generic quadruple all zero"})
    return samples - skipped, failures, {"skipped": skipped}


def _squared_distances(points) -> tuple:
    """Squared distances (s12, s13, s23) of three affine world points."""
    return tuple(sum((pa - pb) * (pa - pb) for pa, pb in zip(a.coords[:3], b.coords[:3]))
                 for a, b in itertools.combinations(points, 2))


def _exp_pairwise_triangle(config, seed):
    samples = config.get("samples", 5)
    failures, skipped = [], 0
    for idx, _, rng, rig in _sample_rigs(config, seed, samples):
        pts = [random_affine_point(rng, 10) for _ in range(3)]
        sq = _squared_distances(pts)
        if any(s == 0 for s in sq):
            skipped += 1
            continue
        system = constraint_system(rig, Family.PAIRWISE_DISTANCE, squared_distances=sq)
        tuples3 = [_canonical_tuple(forward_map(rig, p)) for p in pts]
        if any(val != 0 for val in system.evaluate(*tuples3)):
            failures.append({"sample": idx, "reason": "pairwise system nonzero on configuration"})
        disc = squared_distance_discriminant(*sq)
        strict = triangle_inequality_ok(*(math.sqrt(float(s)) for s in sq))
        if (disc == 0) == strict:
            failures.append({"sample": idx, "reason": "discriminant/triangle disagreement"})
        # collinear sample: the discriminant must vanish identically
        col = [pts[0],
               ProjectivePoint(tuple(a + (b - a) / 2 for a, b in zip(pts[0].coords, pts[1].coords))),
               pts[1]]
        if squared_distance_discriminant(*_squared_distances(col)) != 0:
            failures.append({"sample": idx, "reason": "collinear discriminant nonzero"})
    return samples - skipped, failures, {"skipped": skipped}


EXPERIMENTS: dict = {
    "VANISH": _exp_vanish,
    "SEPARATE": _exp_separate,
    "THM32_EQUIV": _exp_thm_equiv,
    "COR34_SIXTEEN": _exp_cor34,
    "SPAN_126_9": _exp_span,
    "COUNTS": _exp_counts,
    "EPIPOLE_COMPONENT": _exp_epipole,
    "GROUP_ACTION": _exp_group_action,
    "COPLANAR": _exp_coplanar,
    "PAIRWISE_TRIANGLE": _exp_pairwise_triangle,
}


def run_experiment(tag: str, config: Optional[dict] = None) -> ExperimentReport:
    """Run one named experiment deterministically from (tag, config, seed)."""
    if tag not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {tag!r}; known: {sorted(EXPERIMENTS)}")
    config = dict(config or {})
    seed = config.get("seed", 0)
    start = time.perf_counter()
    samples, failures, details = EXPERIMENTS[tag](config, seed)
    elapsed = time.perf_counter() - start
    return ExperimentReport(tag, config, samples, not failures, failures,
                            details, seed, elapsed)
