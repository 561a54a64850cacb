"""Seeded inputs, requests and output checks of the benchmark workloads.

A workload builds every request's inputs from ``(seed, index)`` through the
``rigidview.harness`` samplers before any timing starts.  ``request`` runs
one request through the public functions of ``rigidview`` and checks every
output against the truth known from construction; ``probe`` (traced run
only) calls the layers underneath one at a time so that each gets a span.

Every call into the library goes through ``call(fn, *args, tag="")``.  The
timed run passes :func:`direct`; the traced run passes a
:class:`tracing.Tracer`, which records a span around the call.
"""

from __future__ import annotations

import random

from rigidview import (
    CameraRig,
    ProjectivePoint,
    all_octics_symbolic,
    assemble_b,
    constraint_system,
    det,
    ideal_component_basis,
    multiview_membership,
    polarize,
    rank,
    refine_rigid_pair,
    rigid_pair_by_equations,
    rigid_pair_oracle,
    signed_maximal_minors,
    span_dimension,
    triangulate,
    unit_distance_form,
)
from rigidview.constraints import Family
from rigidview.harness import (
    SamplingError,
    make_scene,
    random_rig,
    sample_member_pair,
    sample_nonmember_pair,
)
from rigidview.polyspace import random_rank_prime

# Criterion 11's noise level.
REFINE_SIGMA = 1e-3
SPAN_EXPECTED = (126, 9)


def direct(fn, *args, tag=""):
    return fn(*args)


class Outcome:
    """Verdicts of one request, the failed checks as ``(kind, message)``
    pairs, and per-request counts that the traced run reports."""

    __slots__ = ("verdicts", "failures", "counts")

    def __init__(self):
        self.verdicts = []
        self.failures = []
        self.counts = {}

    def raised(self, label, exc):
        self.verdicts.append(None)
        self.failures.append((f"{label}:raised:{type(exc).__name__}", str(exc)))

    def check(self, label, ok, kind, message=""):
        if not ok:
            self.failures.append((f"{label}:{kind}", message))

    def verdict(self, call, truth, fn, *args):
        """Run one membership call and compare it with the constructed truth.
        An exception is a failure of this request; it is never retried."""
        try:
            got = call(fn, *args)
        except Exception as exc:  # boundary: count the failure and go on
            self.raised(fn.__name__, exc)
            return
        self.verdicts.append(bool(got))
        self.check(fn.__name__, got == truth, "wrong_accept" if got else "wrong_reject")


def _canonical(points):
    return tuple(ProjectivePoint(p.canonical()) for p in points)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _epipole_pair(rig):
    """(A_0 c_1, A_1 c_0) for a two-camera rig, with the focal points c_j
    taken as the signed 3x3 minors of A_j: the truth of the epipole-kind
    requests must not come from the code under test."""
    focal = []
    for cam in rig.cameras:
        rows = cam.matrix.data
        focal.append([(-1) ** i * _det3([r[:i] + r[i + 1:] for r in rows]) for i in range(4)])
    images = [[sum(a * c for a, c in zip(row, focal[1 - j])) for row in cam.matrix.data]
              for j, cam in enumerate(rig.cameras)]
    return _canonical(ProjectivePoint(image) for image in images)


def _float_rig(rig):
    return CameraRig([cam.matrix.to_float() for cam in rig.cameras])


def _float_tuple(points):
    """Float image points scaled to max-norm 1."""
    out = []
    for p in points:
        top = max(abs(c) for c in p.coords)
        out.append(ProjectivePoint([float(c / top) for c in p.coords]))
    return tuple(out)


def _affine(points):
    return [(float(p[0]) / float(p[2]), float(p[1]) / float(p[2])) for p in points]


def _triangulate_probe(call, rig, points):
    try:
        call(triangulate, rig, points)
    except ValueError:
        # NotTriangulable / NotInVariety / Ambiguous: the span records it.
        pass


def _pair_probes(call, rig, u, v):
    for side in (u, v):
        call(multiview_membership, rig, side)
    for side in (u, v):
        _triangulate_probe(call, rig, side)


def _float_probes(call, case, counts):
    """The float layers on a unit pair: rank of B, the small octic family
    and refinement of noisy affine observations.  Timed only: at this
    commit the float verdicts depend on the scale of cameras, image points
    and world points, so no timed request can check them."""
    rig = _float_rig(case["rig"])
    u, v = _float_tuple(case["u"]), _float_tuple(case["v"])
    call(rank, assemble_b(rig, 0, 1, u[0], u[1]).mat, tag="float6")
    family = Family.OCTIC_NINE if rig.n == 2 else Family.OCTIC_SIXTEEN
    system = constraint_system(rig, family)
    call(system.evaluate, u, v, tag="small_family")
    try:
        scene = make_scene(case["rig"], list(case["world"]), REFINE_SIGMA, case["probe_seed"])
    except SamplingError:
        return  # an image point at infinity has no affine observation
    res = call(refine_rigid_pair, rig, _affine(scene.image_tuples[0]),
               _affine(scene.image_tuples[1]))
    counts["harness.refine_iterations"] = counts.get("harness.refine_iterations", 0) + res.iterations


class ExactPairs:
    """Exact rigs with n cycling over 2, 3, 4; member, non-member and (n = 2)
    epipole-component pairs, as in the THM32_EQUIV experiment."""

    name = "exact-pairs"
    pool_size = 180
    trace_size = 18  # one full cycle of (n, kind)
    kinds = {2: ("member", "nonmember", "epipole"), 3: ("member", "nonmember"),
             4: ("member", "nonmember")}

    def make(self, seed, index, call=direct):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        n = (2, 3, 4)[index % 3]
        kinds = self.kinds[n]
        kind = kinds[(index // 3) % len(kinds)]
        rig = call(random_rig, rng, n)
        sampler = sample_nonmember_pair if kind == "nonmember" else sample_member_pair
        u, v, x, y = call(sampler, rig, rng)
        world = (x, y)
        if kind == "epipole":
            v = _epipole_pair(rig)
            world = None
        return {"kind": kind, "member": kind != "nonmember",
                "rig": rig, "u": u, "v": v, "world": world,
                "probe_seed": f"{self.name}:{seed}:{index}:probe"}

    def warm(self, pool):
        self.request(pool[0])

    def request(self, case, call=direct):
        out = Outcome()
        rig, u, v, truth = case["rig"], case["u"], case["v"], case["member"]
        out.verdict(call, truth, rigid_pair_by_equations, rig, u, v, Family.OCTIC_FULL)
        out.verdict(call, truth, rigid_pair_oracle, rig, u, v)
        return out

    def probe(self, case, call, counts):
        rig, u, v = case["rig"], case["u"], case["v"]
        b = assemble_b(rig, 0, 1, u[0], u[1]).mat
        call(det, b, tag="exact6")
        call(rank, b, tag="exact6")
        call(signed_maximal_minors, b.delete_row(0), tag="exact5")
        _pair_probes(call, rig, u, v)
        system = constraint_system(rig, Family.OCTIC_FULL)
        values = call(system.evaluate, u, v, tag=f"octic_full.n{rig.n}")
        counts["constraints.octic_values"] = counts.get("constraints.octic_values", 0) + len(values)
        if case["kind"] == "member":
            _float_probes(call, case, counts)


class Span1269:
    """One exact two-camera rig per request: the 441 symbolic octics, the
    (2,2,2,2) slice of the consistency ideal and three mod-p ranks, as
    ``rigidview span-dim`` computes them."""

    name = "span-126-9"
    pool_size = 8
    trace_size = 1

    def make(self, seed, index, call=direct):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        rig = call(random_rig, rng, 2)
        return {"rig": rig, "prime": random_rank_prime(rng)}

    def warm(self, pool):
        span_dimension(ideal_component_basis(pool[0]["rig"]), pool[0]["prime"])

    def request(self, case, call=direct):
        out = Outcome()
        rig, p = case["rig"], case["prime"]
        try:
            octics = call(all_octics_symbolic, rig, polarize(unit_distance_form()))
            component = call(ideal_component_basis, rig)
            span = call(span_dimension, octics, p, tag="octics")
            base = call(span_dimension, component, p, tag="component")
            union = call(span_dimension, component + octics, p, tag="union")
        except Exception as exc:  # boundary: count the failure and go on
            out.raised("span", exc)
            return out
        dims = (span, union - base)
        out.verdicts.append(list(dims))
        out.check("span", dims == SPAN_EXPECTED, "wrong_dims", f"got {dims}")
        out.counts["polyspace.octic_terms"] = sum(len(q.terms) for q in octics)
        return out

    def probe(self, case, call, counts):
        """The request's own calls already separate the polyspace stages."""


WORKLOADS = {w.name: w for w in (ExactPairs(), Span1269())}
