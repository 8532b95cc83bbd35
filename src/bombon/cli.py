"""Command-line front door.

Every subcommand but suite reads one JSON object (from --input FILE or
stdin), prints one JSON object (or a plain-text rendering with --format
text) and exits 0 on success, 1 when a verified property fails, 2 on
bad input.  Each takes only the flags its handler reads.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import jsonio
from .actions import CoreSplit, bundle_projection, homogeneity_transport, \
    pseudo_unitary_check, s1_action
from .convexity import disk_section_test, mvee_complex
from .errors import (BombonError, ExpectationViolated, NoConvergence,
                     OracleInconsistent, TypeMismatch)
from .linalg import DEFAULT_TOL
from .moebius import GenCircle, rotation
from .oracles import (RunConfig, bidisk_oracle, oracle_from_quadric,
                      verify_axioms, verify_point_star)
from .projective import ProjPoint
from .quadrics import QuadricBombon, equivalence_witness, join_with_apex
from .sections import classify_line_section, section_with_subspace, \
    tangent_space
from .suite import theorem_suite
from .version import VERSION

_EXIT_OK = 0
_EXIT_FAILED = 1
_EXIT_BAD_INPUT = 2


def _load(args):
    try:
        if args.input:
            return jsonio.load_input(args.input)
        return json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read input: {exc}") from exc


def _text_lines(obj, indent=""):
    pad = indent + "  "
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                yield f"{indent}{key}:"
                yield from _text_lines(val, pad)
            else:
                yield f"{indent}{key}: {json.dumps(val)}"
    elif isinstance(obj, list):
        scalar = all(not isinstance(t, (dict, list)) for t in obj)
        if scalar:
            yield f"{indent}{json.dumps(obj)}"
        else:
            for item in obj:
                yield f"{indent}-"
                yield from _text_lines(item, pad)
    else:
        yield f"{indent}{json.dumps(obj)}"


def _emit(payload, fmt):
    print("\n".join(_text_lines(payload)) if fmt == "text"
          else jsonio.canonical_dumps(payload))


def _quadric_from(obj, key, tol):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f'input must carry a "{key}" object')
    return jsonio.decode_quadric(obj[key], tol=tol)


# --- subcommand handlers ---------------------------------------------------


def _cmd_classify(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    line = jsonio.decode_line(obj.get("line"), x.n + 1)
    sec, rep = classify_line_section(x, line, with_sides=True)
    return jsonio.encode_section(sec, rep), _EXIT_OK


def _encode_section_of(x, sub):
    result = section_with_subspace(x, sub)
    if isinstance(result, QuadricBombon):
        return {"kind": "quadric", "quadric": jsonio.encode_quadric(result)}
    return {"kind": "subspace", "subspace": jsonio.encode_subspace(result)}


def _cmd_section(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    sub = jsonio.decode_subspace(obj.get("subspace"), x.n)
    return _encode_section_of(x, sub), _EXIT_OK


def _cmd_type(args):
    x = _quadric_from(_load(args), "quadric", args.tol)
    t = x.bombon_type()
    return {"label": str(t),
            "p": t.p, "q": t.q, "n": t.n, "sing_dim": t.sing_dim,
            "special": x.classify_special().value,
            "signature": {"n_pos": x.sig.n_pos, "n_neg": x.sig.n_neg,
                          "n_zero": x.sig.n_zero}}, _EXIT_OK


def _cmd_canonical(args):
    x = _quadric_from(_load(args), "quadric", args.tol)
    t, wit, canon = x.canonical_form()
    return {"type": str(t),
            "canonical": jsonio.encode_matrix(canon),
            "t": jsonio.encode_matrix(wit.t),
            "flipped": wit.flipped,
            "scale": wit.scale,
            "residual": wit.residual(x.a, canon)}, _EXIT_OK


def _cmd_equiv(args):
    obj = _load(args)
    x = _quadric_from(obj, "first", args.tol)
    y = _quadric_from(obj, "second", args.tol)
    try:
        wit = equivalence_witness(x, y)
    except TypeMismatch as exc:
        # inequivalence is an answer, not an error
        return {"equivalent": False, "reason": str(exc)}, _EXIT_OK
    return {"equivalent": True,
            "t": jsonio.encode_matrix(wit.t),
            "flipped": wit.flipped,
            "scale": wit.scale,
            "residual": wit.residual(x.a, y.a)}, _EXIT_OK


def _cmd_join(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    gamma = jsonio.decode_subspace(obj.get("gamma"))
    delta = jsonio.decode_subspace(obj.get("delta"))
    joined = join_with_apex(x, gamma, delta)
    return {"quadric": jsonio.encode_quadric(joined)}, _EXIT_OK


def _cmd_tangent(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    p = jsonio.decode_point(obj.get("point"), x.n + 1)
    h = tangent_space(x, p)
    return {"subspace": jsonio.encode_subspace(h),
            "section": _encode_section_of(x, h)}, _EXIT_OK


def _cmd_cores(args):
    x = _quadric_from(_load(args), "quadric", args.tol)
    cu, cv = x.cores()
    return {"core_u": jsonio.encode_subspace(cu),
            "core_v": jsonio.encode_subspace(cv)}, _EXIT_OK


def _cmd_orbit(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    p = jsonio.decode_point(obj.get("point"), x.n + 1)
    x.require_on(p)
    split = CoreSplit.from_quadric(x)
    pu, pv = bundle_projection(x, split, p)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if "thetas" in obj:
        if not isinstance(obj["thetas"], list):
            raise ValueError('"thetas" must be a JSON array')
        thetas = [float(t) for t in obj["thetas"]]
        if not thetas:
            raise ValueError('"thetas" must be a nonempty list')
    else:
        thetas = list(2.0 * np.pi * np.arange(args.samples) / args.samples)
    points = [s1_action(split, t, p.unit) for t in thetas]
    worst = max(abs(x.value(ProjPoint(w))) for w in points)
    return {"thetas": thetas,
            "points": [jsonio.encode_vector(w) for w in points],
            "bundle_u": jsonio.encode_point(pu),
            "bundle_v": jsonio.encode_point(pv),
            "max_value": worst}, _EXIT_OK


def _cmd_transport(args):
    obj = _load(args)
    x = _quadric_from(obj, "quadric", args.tol)
    p = jsonio.decode_point(obj.get("from"), x.n + 1)
    q = jsonio.decode_point(obj.get("to"), x.n + 1)
    wit = homogeneity_transport(x, p, q)
    return {"t": jsonio.encode_matrix(wit.t),
            "residual": wit.residual,
            "pseudo_unitary": pseudo_unitary_check(wit.t, x.a)}, _EXIT_OK


def _cmd_rotate(args):
    obj = _load(args)
    if not isinstance(obj, dict) or "circle" not in obj:
        raise ValueError('rotate input is {"circle": matrix, "u": hvector, '
                         '"theta": real}')
    try:
        circ = GenCircle(jsonio.decode_matrix(obj["circle"], square=True))
    except ValueError as exc:
        raise ValueError(f"bad circle matrix: {exc}") from exc
    u = jsonio.decode_point(obj.get("u"), 2)
    theta = float(obj.get("theta", 0.0))
    f = rotation(circ, u, theta)
    return {"m": jsonio.encode_matrix(f.m)}, _EXIT_OK


def _cmd_mvee(args):
    obj = _load(args)
    raw = obj["points"] if isinstance(obj, dict) and "points" in obj else obj
    if not isinstance(raw, list) or not raw:
        raise ValueError("mvee input is a nonempty JSON array of points")
    pts = np.stack([jsonio.decode_vector(p) for p in raw])
    ell = mvee_complex(pts, eps=args.eps)
    return {"center": jsonio.encode_vector(ell.center),
            "H": jsonio.encode_matrix(ell.h),
            "eps": ell.eps,
            "iterations": ell.iterations,
            "gap": ell.gap_history[-1]}, _EXIT_OK


def _cmd_disksect(args):
    obj = _load(args)
    if not isinstance(obj, dict) or "body" not in obj or "line" not in obj:
        raise ValueError('disksect input is {"body": spec, "line": spec}')
    body = jsonio.decode_body(obj["body"])
    line = jsonio.decode_affine_line(obj["line"])
    rng = np.random.default_rng(args.seed)
    verdict = disk_section_test(body, line, tol=args.disk_tol, rng=rng)
    return {"tag": verdict.tag.value,
            "center": jsonio.encode_complex(verdict.center),
            "radius": verdict.radius,
            "deviation": verdict.deviation}, _EXIT_OK


def _oracle_from_spec(obj, tol):
    if isinstance(obj, dict) and "quadric" in obj and "oracle" not in obj:
        obj = {"oracle": {"type": "quadric", "quadric": obj["quadric"]}}
    spec = obj.get("oracle") if isinstance(obj, dict) else None
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError('verify input needs "quadric" or '
                         '"oracle": {"type": ...}')
    kind = spec["type"]
    if kind == "quadric":
        return oracle_from_quadric(jsonio.decode_quadric(spec["quadric"],
                                                         tol=tol))
    if kind == "bidisk":
        return bidisk_oracle(spec.get("radii", [1.0, 1.0]))
    raise ValueError(f"unknown oracle type: {kind!r}")


def _cmd_verify(args):
    obj = _load(args)
    oracle = _oracle_from_spec(obj, args.tol)
    cfg = RunConfig(seed=args.seed, n_lines=args.lines,
                    output_format=args.format)
    if isinstance(obj, dict) and "star" in obj:
        p = jsonio.decode_point(obj["star"], oracle.dim + 1)
        rep, passed = verify_point_star(oracle, p, cfg), "AllCircles"
    else:
        rep, passed = verify_axioms(oracle, cfg), "ConsistentWithBombon"
    return rep.to_dict(), _EXIT_OK if rep.verdict == passed else _EXIT_FAILED


def _cmd_suite(args):
    cfg = RunConfig(seed=args.seed, n_lines=args.lines,
                    output_format=args.format)
    names = None
    if args.names:
        names = tuple(t.strip() for t in args.names.split(",") if t.strip())
    return theorem_suite(cfg, corrupt=args.corrupt, names=names)


_HANDLERS = {
    "classify": (_cmd_classify, "classify a line section of a quadric"),
    "section": (_cmd_section, "intersect a quadric with a subspace"),
    "type": (_cmd_type, "projective type and special class of a quadric"),
    "canonical": (_cmd_canonical, "canonical form with congruence witness"),
    "equiv": (_cmd_equiv, "decide projective equivalence of two quadrics"),
    "join": (_cmd_join, "join a quadric with an apex subspace"),
    "tangent": (_cmd_tangent, "tangent hyperplane and its section"),
    "cores": (_cmd_cores, "core subspaces of the two sides"),
    "orbit": (_cmd_orbit, "circle action orbit of a point on the quadric"),
    "transport": (_cmd_transport, "symmetry carrying one quadric point "
                                  "to another"),
    "rotate": (_cmd_rotate, "rotation about a generalized circle"),
    "mvee": (_cmd_mvee, "minimal enclosing complex ellipsoid"),
    "disksect": (_cmd_disksect, "test a convex body's line section for "
                                "roundness"),
    "verify": (_cmd_verify, "Monte-Carlo axiom check of a membership "
                            "oracle"),
    "suite": (_cmd_suite, "run the theorem regression suite"),
}


# Every flag a subcommand may take.
_FLAGS = {
    "--seed": dict(type=int, default=7,
                   help="RNG seed for randomized subcommands"),
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help="relative zero tolerance"),
    "--format": dict(choices=("json", "text"), default="json",
                     help="output format"),
    "--input": dict(metavar="FILE", help="JSON input file (default: stdin)"),
    "--lines": dict(type=int, default=200,
                    help="number of random lines / size scale"),
    "--corrupt": dict(choices=("classifier",),
                      help="inject a fault to prove the suite notices"),
    "--names": dict(help="comma-separated property subset"),
    "--samples": dict(type=int, default=16,
                      help="orbit sample count when no thetas given"),
    "--eps": dict(type=float, default=1e-6, help="duality gap target"),
    "--disk-tol": dict(type=float, default=1e-3,
                       help="relative roundness tolerance"),
}
# The flags each subcommand's handler reads; it takes no others.
_SUBCOMMAND_FLAGS = dict.fromkeys(_HANDLERS, "--tol --format --input") | {
    "orbit": "--tol --format --input --samples",
    "rotate": "--format --input",
    "mvee": "--format --input --eps",
    "disksect": "--seed --format --input --disk-tol",
    "verify": "--seed --tol --format --input --lines",
    "suite": "--seed --format --lines --corrupt --names",
}


# Built once per process: parse_args never mutates the parser, and the
# subparser tree costs more to build than a typical request takes.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bombon",
        description="quadrics with circular line sections: classification, "
                    "symmetries and verification")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, blurb) in _HANDLERS.items():
        sp = subs.add_parser(name, help=blurb)
        sp.set_defaults(handler=handler)
        for flag in _SUBCOMMAND_FLAGS[name].split():
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except (ExpectationViolated, OracleInconsistent, NoConvergence) as exc:
        _emit({"error": str(exc)}, args.format)
        return _EXIT_FAILED
    except (ValueError, KeyError, TypeError, BombonError) as exc:
        _emit({"error": str(exc)}, args.format)
        return _EXIT_BAD_INPUT
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
