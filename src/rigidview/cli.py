"""Command-line interface.

All inputs and outputs are JSON documents; rationals serialize as 'p/q'
strings.  Inline JSON arguments may be replaced by '@path' to read a file.
The process exits 0 exactly when the requested check passes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import isfinite

from .cameras import CameraRig, ProjectivePoint, forward_map, rig_from_json, rig_to_json
from .constraints import Family, rigid_pair_by_equations, rigid_pair_oracle
from .harness import (
    numeric_dimension,
    random_rig,
    refine_rigid_pair,
    run_experiment,
)
from .linalg import EXACT, FLOAT, decode_scalar, encode_scalar
from .polyspace import generator_count, octic_span, random_rank_prime
from .triangulation import NotInVarietyError, NotTriangulableError, triangulate


def _load_json_arg(value: str):
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def _load_rig(path: str, backend: str | None, tol: float | None = None) -> CameraRig:
    with open(path, "r", encoding="utf-8") as fh:
        return rig_from_json(json.load(fh), backend, tol)


def _array(value, what: str) -> list:
    """``value`` if it is a JSON array, else ValueError naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {value!r}")
    return value


def _point(values, backend) -> ProjectivePoint:
    return ProjectivePoint([decode_scalar(v, backend) for v in _array(values, "a point")])


def _tuple(values, backend):
    return tuple(_point(p, backend) for p in _array(values, "an image tuple"))


def _point_json(pt: ProjectivePoint):
    return [encode_scalar(c) for c in pt.coords]


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, default=str)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen_rig(args) -> int:
    rig = random_rig(args.seed, args.n, args.height, args.signed)
    if args.backend == FLOAT:
        rig = CameraRig([c.matrix.to_float() for c in rig.cameras])
    _emit(rig_to_json(rig), args)
    return 0


def _cmd_project(args) -> int:
    rig = _load_rig(args.rig, args.backend)
    x = _point(_load_json_arg(args.point), rig.backend)
    images = forward_map(rig, x)
    _emit({"images": [_point_json(p) for p in images]}, args)
    return 0


def _cmd_triangulate(args) -> int:
    rig = _load_rig(args.rig, args.backend)
    points = _tuple(_load_json_arg(args.tuple), rig.backend)
    try:
        sol = triangulate(rig, points)
    except (NotInVarietyError, NotTriangulableError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args)
        return 1
    _emit({
        "point": _point_json(sol.point),
        "lambdas": [encode_scalar(l) for l in sol.lambdas],
        "witness": {"pair": list(sol.pair), "row": sol.row},
    }, args)
    return 0


_FAMILY_ALIASES = {"full": Family.OCTIC_FULL, "nine": Family.OCTIC_NINE,
                   "sixteen": Family.OCTIC_SIXTEEN}


def _cmd_check(args) -> int:
    if args.tol is not None and not (isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, not {args.tol}")
    rig = _load_rig(args.rig, args.backend, args.tol)
    u = _tuple(_load_json_arg(args.u), rig.backend)
    v = _tuple(_load_json_arg(args.v), rig.backend)
    if args.family == "oracle":
        verdict = rigid_pair_oracle(rig, u, v, tol=args.tol)
    else:
        verdict = rigid_pair_by_equations(rig, u, v, _FAMILY_ALIASES[args.family], tol=args.tol)
    _emit({"member": verdict, "family": args.family}, args)
    return 0 if verdict else 1


def _cmd_span_dim(args) -> int:
    if args.rig:
        rig = _load_rig(args.rig, EXACT)
    else:
        rig = random_rig(args.seed, 2, args.height)
    doc = octic_span(rig, random_rank_prime(random.Random(args.seed)))
    _emit(doc, args)
    return 0 if (doc["span"], doc["quotient"]) == (126, 9) else 1


def _cmd_counts(args) -> int:
    _emit(generator_count(args.n).to_json(), args)
    return 0


_SCENARIO_ALIASES = {"rigid-pair": "rigid_pair", "coplanar4": "coplanar_4",
                     "pairwise3": "pairwise_3"}


def _cmd_dimension(args) -> int:
    if args.rig:
        rig = _load_rig(args.rig, FLOAT)
    else:
        rig = random_rig(args.seed, args.n, args.height)
        rig = CameraRig([c.matrix.to_float() for c in rig.cameras])
    distances = (args.d12, args.d13, args.d23) if args.scenario == "pairwise3" else None
    dim = numeric_dimension(rig, _SCENARIO_ALIASES[args.scenario], distances, seed=args.seed)
    _emit({"scenario": args.scenario, "dimension": dim}, args)
    return 0


def _as_affine_obs(values):
    out = []
    for entry in _array(values, "the observed points"):
        w = [decode_scalar(c, FLOAT) for c in _array(entry, "an observed point")]
        if len(w) == 2:
            w.append(1.0)
        if len(w) != 3 or w[2] == 0:
            raise ValueError(f"an observed point is 2 affine or 3 homogeneous coordinates "
                             f"with a nonzero last one, not {entry!r}")
        out.append((w[0] / w[2], w[1] / w[2]))
    return out


def _cmd_refine(args) -> int:
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be at least 0, not {args.max_iter}")
    rig = _load_rig(args.rig, FLOAT)
    obs_u = _as_affine_obs(_load_json_arg(args.u))
    obs_v = _as_affine_obs(_load_json_arg(args.v))
    res = refine_rigid_pair(rig, obs_u, obs_v, max_iter=args.max_iter)
    _emit({
        "x": list(res.x), "y": list(res.y),
        "residual": res.residual, "initial_residual": res.initial_residual,
        "iterations": res.iterations, "converged": res.converged,
    }, args)
    return 0


def _cmd_verify(args) -> int:
    for flag, count in (("--samples", args.samples), ("--rigs", args.rigs)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, not {count}")
    config = {"seed": args.seed}
    if args.n:
        ns = [int(x) for x in args.n.split(",")]
        config["n"] = ns[0] if len(ns) == 1 else ns
    if args.samples is not None:
        config["samples"] = args.samples
    if args.rigs is not None:
        config["rigs"] = args.rigs
    report = run_experiment(args.experiment, config)
    _emit(report.to_json(), args)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidview",
        description="Multiview camera geometry with distance-constrained reconstruction")
    parser.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-rig", help="emit a random general-position rig as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, default=20)
    p.add_argument("--signed", action="store_true")
    p.set_defaults(func=_cmd_gen_rig)

    p = sub.add_parser("project", help="project a world point through every camera")
    p.add_argument("--rig", required=True)
    p.add_argument("--point", required=True, help="JSON array of 4 values, or @file")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("triangulate", help="recover the world point of an image tuple")
    p.add_argument("--rig", required=True)
    p.add_argument("--tuple", required=True, help="JSON array of n 3-arrays, or @file")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("check", help="membership test for an image pair")
    p.add_argument("--rig", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--family", choices=["full", "nine", "sixteen", "oracle"], default="full")
    p.add_argument("--tol", type=float, default=None,
                   help="float tolerance: the rig's rank and consistency tolerance, "
                        "and the vanish tolerance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("span-dim", help="span dimension of the 441 octics and the quotient")
    p.add_argument("--rig", default=None)
    p.add_argument("--height", type=int, default=20)
    p.set_defaults(func=_cmd_span_dim)

    p = sub.add_parser("counts", help="conjectured generator counts per degree class")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("dimension", help="numeric dimension of a constrained image variety")
    p.add_argument("--scenario", choices=sorted(_SCENARIO_ALIASES), required=True)
    p.add_argument("--rig", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--height", type=int, default=20)
    p.add_argument("--d12", type=float, default=1.0)
    p.add_argument("--d13", type=float, default=1.0)
    p.add_argument("--d23", type=float, default=1.0)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("refine", help="constrained refinement of a noisy image pair")
    p.add_argument("--rig", required=True)
    p.add_argument("--u", required=True, help="observed points: n 2-arrays (affine) or 3-arrays")
    p.add_argument("--v", required=True)
    p.add_argument("--max-iter", type=int, default=100)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("verify", help="run a named randomized experiment")
    p.add_argument("--experiment", required=True)
    p.add_argument("--n", default=None, help="camera count or comma list")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--rigs", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
