"""Command-line interface: simulation, classification, and figure-data emitters.

This is the only module that performs I/O.  Grids are emitted as CSV
(stream-friendly), single classifications as JSON with a schema_version
field.  Complex numbers appear as re,im pairs in flags and as paired
_re/_im columns in CSV.  All outputs are deterministic for identical
inputs: grid rows are ordered by (row, col).

Exit codes: 0 success, 1 numerical guard tripped, 2 flag validation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import halfline as hl
from . import line as ln
from . import oracles
from .cmv import default_dimension, min_dimension, moments_at_origin, return_probability_series
from .coins import (
    Lattice,
    Qubit,
    WalkSpec,
    defect_params,
    hadamard,
    hat_qubit,
    konno_defect,
    random_coin,
    spec_for_halfline_params,
    validate_coin,
)
from .errors import DefectWalkError, DiagonalCoin, TooLarge
from .schur import _branch_mask, weight_halfline, weight_line

SCHEMA_VERSION = 1

# Caps on the size flags, checked before anything is allocated: --grid
# (an n x n grid), --theta-grid (rows of weight) and --samples (points per curve).
MAX_GRID = 2048
MAX_THETA_GRID = 1 << 20
MAX_SAMPLES = 1 << 16

_COIN_FIELDS = ("c11_re", "c11_im", "c12_re", "c12_im", "c21_re", "c21_im", "c22_re", "c22_im")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fail_usage(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_floats(flag: str, text: str, count: int) -> list[float]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != count:
        raise _fail_usage(f"{flag}: expected {count} comma-separated numbers, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _fail_usage(f"{flag}: could not parse {text!r} as numbers")
    if not all(math.isfinite(v) for v in values):
        raise _fail_usage(f"{flag}: numbers must be finite, got {text!r}")
    return values


def _parse_coin(flag: str, text: str):
    v = _parse_floats(flag, text, 8)
    m = np.array(
        [[v[0] + 1j * v[1], v[2] + 1j * v[3]], [v[4] + 1j * v[5], v[6] + 1j * v[7]]]
    )
    try:
        return validate_coin(m)
    except DefectWalkError as exc:
        raise _fail_usage(f"{flag}: {exc}")


def _parse_complex(flag: str, text: str) -> complex:
    v = _parse_floats(flag, text, 2)
    return complex(v[0], v[1])


def _parse_qubit(flag: str, text: str) -> Qubit:
    v = _parse_floats(flag, text, 4)
    try:
        return Qubit.normalized(complex(v[0], v[1]), complex(v[2], v[3]))
    except ZeroDivisionError:
        raise _fail_usage(f"{flag}: zero qubit")


def _size(flag: str, n: int, floor: int, cap: int) -> int:
    """n if floor <= n <= cap: exit 2 below the floor, TooLarge above the cap."""
    if n < floor:
        raise _fail_usage(f"{flag}: must be >= {floor}")
    if n > cap:
        raise TooLarge(f"{flag}: {n} exceeds the cap {cap}")
    return n


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_params(args):
    """(a, b, omega, spec-or-None) from either coins or raw values."""
    has_coins = args.coin is not None or args.defect is not None
    has_raw = args.a is not None or args.b is not None
    if has_coins and has_raw:
        raise _fail_usage("--coin/--defect and --a/--b are mutually exclusive")
    lattice = Lattice(args.lattice)
    if has_coins:
        if args.coin is None or args.defect is None:
            raise _fail_usage("--coin and --defect must be given together")
        if args.omega is not None:
            raise _fail_usage("--omega: the coins fix omega; give it only with --a/--b")
        spec = WalkSpec(lattice, _parse_coin("--coin", args.coin), _parse_coin("--defect", args.defect))
        p = defect_params(spec)
        return p.a, p.b, p.omega, spec
    if args.a is None or args.b is None:
        raise _fail_usage("give either --coin/--defect or --a/--b")
    a = _parse_complex("--a", args.a)
    b = _parse_complex("--b", args.b)
    omega = _parse_complex("--omega", args.omega) if args.omega else 1.0 + 0j
    if abs(a) >= 1 or abs(b) >= 1:
        raise _fail_usage("--a/--b: parameters must lie in the open unit disk")
    if abs(abs(omega) - 1) > 1e-9:
        raise _fail_usage("--omega: must be unimodular")
    if args.omega is not None and lattice is Lattice.HALF_LINE:
        raise _fail_usage("--omega: line only")
    return a, b, omega, None


def _add_coin_opts(p: argparse.ArgumentParser, with_params: bool = True):
    p.add_argument("--lattice", required=True, choices=["line", "halfline"])
    p.add_argument("--coin", help="constant coin as 8 reals: " + ",".join(_COIN_FIELDS))
    p.add_argument("--defect", help="defect coin, same format")
    if with_params:
        p.add_argument("--a", help="reduced parameter a as re,im (alternative to coins)")
        p.add_argument("--b", help="reduced parameter b as re,im")
        p.add_argument("--omega", help="line-only phase omega as re,im (default 1,0)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    lattice = Lattice(args.lattice)
    if args.coin is None or args.defect is None:
        raise _fail_usage("simulate requires --coin and --defect")
    spec = WalkSpec(lattice, _parse_coin("--coin", args.coin), _parse_coin("--defect", args.defect))
    q = _parse_qubit("--qubit", args.qubit)
    if args.steps < 0:
        raise _fail_usage("--steps: must be >= 0")
    if lattice is Lattice.HALF_LINE and args.site < 0:
        raise _fail_usage("--site: half-line sites are nonnegative")
    dim = default_dimension(lattice, args.steps, args.site) if args.dimension is None else args.dimension
    if dim < min_dimension(args.steps, args.site):
        raise _fail_usage(
            f"--dimension: below the required {min_dimension(args.steps, args.site)}"
        )
    series = return_probability_series(spec, args.site, q, args.steps, dim)
    lines = ["n,p"] + [f"{n},{_fmt(p)}" for n, p in enumerate(series.tolist())]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _classification_payload(args):
    """(lattice, params, qubits); params and qubits are None for a diagonal
    constant coin, given as coins or as a = 0 on the half line."""
    lattice = Lattice(args.lattice)
    try:
        a, b, omega, spec = _resolve_params(args)
    except DiagonalCoin:
        return lattice, None, None
    if a == 0 and lattice is Lattice.HALF_LINE:
        return lattice, None, None
    raw = getattr(args, "qubit", None)
    qubit = _parse_qubit("--qubit", raw) if raw else Qubit(1.0, 0.0)
    hatted = hat_qubit(qubit, 0, spec) if spec is not None else qubit
    return lattice, (a, b, omega), (qubit, hatted)


def _qubit_row(q: Qubit) -> list[float]:
    return [q.alpha.real, q.alpha.imag, q.beta.real, q.beta.imag]


def _json_command(fields, unlocalized):
    """A command that prints one JSON document: ``fields(lattice, a, b, omega,
    qubit, hatted)`` gives its own keys, or ``unlocalized(lattice)`` when
    :func:`_classification_payload` finds no localization; the frame adds
    ``schema_version`` and ``lattice``."""

    def command(args) -> int:
        lattice, params, qubits = _classification_payload(args)
        doc = unlocalized(lattice) if params is None else fields(lattice, *params, *qubits)
        doc.update(schema_version=SCHEMA_VERSION, lattice=lattice.value)
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0

    return command


def _line_rows(points) -> list[dict]:
    return [
        {"z_re": p.z0.real, "z_im": p.z0.imag, "m": p.m, "eta_re": p.eta.real, "eta_im": p.eta.imag}
        for p in points
    ]


def _halfline_rows(points) -> list[dict]:
    return [
        {
            "z_re": p.z0.real,
            "z_im": p.z0.imag,
            "side": "GammaPlus" if p.side > 0 else "GammaMinus",
            "mu": p.mu,
        }
        for p in points
    ]


def _classify_fields(lattice, a, b, omega, qubit, hatted):
    if lattice is Lattice.HALF_LINE:
        region = hl.classify_region(a)
        points = hl.mass_points(a, b)
        nq = hl._nonlocalized(b, points)
        return {
            "l_label": region.l_label,
            "tangent_profile": region.tangent_profile,
            "mass_points": _halfline_rows(points),
            "p_cesaro": hl._asymptotics(b, points, hatted).cesaro,
            "nonlocalized_qubit": None if nq is None else _qubit_row(nq),
        }
    cls = ln.classify(a, b, omega)
    state_independent = abs(a.real) < 1e-12
    p_limit: dict = {"state_independent": state_independent}
    if state_independent:
        p_limit["value"] = ln.imaginary_a_limit(a, b) if cls.label != "M0" else 0.0
    else:
        p_limit["value"] = ln.return_probability_limit(a, b, omega, hatted)
        p_limit["qubit"] = _qubit_row(qubit)
    nlq = None
    if cls.label in ("M2plus", "M2minus"):
        nlq = _qubit_row(ln.nonlocalized_qubit(a, b, omega, cls.label))
    return {
        "label": cls.label,
        "mass_points": _line_rows(cls.points),
        "p_limit": p_limit,
        "nonlocalized_qubit": nlq,
    }


def _masses_fields(lattice, a, b, omega, qubit, hatted):
    if lattice is Lattice.LINE:
        return {"mass_points": _line_rows(ln.classify(a, b, omega).points)}
    return {"mass_points": _halfline_rows(hl.mass_points(a, b))}


def _return_prob_fields(lattice, a, b, omega, qubit, hatted):
    if lattice is Lattice.LINE:
        return {
            "p_limit": ln.return_probability_limit(a, b, omega, hatted),
            "label": ln.classify(a, b).label,
            "qubit": _qubit_row(qubit),
            "state_independent": abs(a.real) < 1e-12,
        }
    asym = hl.return_asymptotics(a, b, hatted)
    return {
        "n_mass_points": len(asym.zs),
        "qubit": _qubit_row(qubit),
        "p_cesaro": asym.cesaro,
        "p_limit": asym.limit,
    }


_cmd_classify = _json_command(
    _classify_fields,
    lambda lattice: {
        "label": "M0" if lattice is Lattice.LINE else "L-undefined",
        "no_localization": True,
        "reason": "diagonal constant coin (Bernstein-Szego measure)",
        "mass_points": [],
    },
)
_cmd_masses = _json_command(_masses_fields, lambda lattice: {"mass_points": []})
_cmd_return_prob = _json_command(
    _return_prob_fields,
    lambda lattice: {"p_limit": 0.0, "state_independent": True, "no_localization": True},
)


def _grid_coords(n: int) -> np.ndarray:
    # cell centers of an n x n grid over [-1, 1]^2
    return np.array([-1.0 + (2 * i + 1) / n for i in range(n)])


def _cmd_region(args) -> int:
    lattice = Lattice(args.lattice)
    grid = _size("--grid", args.grid, 8, MAX_GRID)
    has_a = args.a is not None
    has_b = args.b is not None
    if has_a == has_b:
        raise _fail_usage("region: give exactly one of --a (scan b-plane) or --b (scan a-plane)")
    fixed = _parse_complex("--a" if has_a else "--b", args.a if has_a else args.b)
    if abs(fixed) >= 1:
        raise _fail_usage("fixed parameter must lie in the open unit disk")
    if has_a and fixed == 0:
        raise _fail_usage("--a: must be nonzero")
    coords = _grid_coords(grid)
    points = np.array([complex(re, im) for im in coords for re in coords])
    inside = np.abs(points) < 1.0
    counts = np.full(points.shape, -1)
    a, b = (fixed, points[inside]) if has_a else (points[inside], fixed)
    counts[inside] = (ln if lattice is Lattice.LINE else hl).mass_point_count(a, b)
    header = ("b_re,b_im,n_mass_points" if has_a else "a_re,a_im,n_mass_points")
    # rows run over (im, re) like points; each axis is formatted once
    axis = [_fmt(x) for x in coords.tolist()]
    rows = itertools.product(axis, repeat=2)
    lines = [header] + [f"{re},{im},{c}" for (im, re), c in zip(rows, counts.tolist())]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_curves(args) -> int:
    n = _size("--samples", args.samples, 16, MAX_SAMPLES)
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    lines = ["curve,t,re,im"]

    def add(name: str, tvals, pts):
        for t, p in zip(tvals, pts):
            lines.append(f"{name},{_fmt(t)},{_fmt(p.real)},{_fmt(p.imag)}")

    add("epicycloid", ts, hl.epicycloid(ts))
    add("epitrochoid", ts, hl.epitrochoid(ts))
    if args.a:
        a = _parse_complex("--a", args.a)
        if not 0 < abs(a) < 1:
            raise _fail_usage("--a: need 0 < |a| < 1")
        t_lo, t_hi = hl.sigma_arc(a)
        arc_t = np.linspace(t_lo + 1e-9, t_hi - 1e-9, n)
        add("sigma_arc", arc_t, hl.zeta_point(a, arc_t))
        for sign, name in ((+1, "envelope_plus"), (-1, "envelope_minus")):
            pts, tv = [], []
            for t in arc_t:
                try:
                    pts.append(hl.envelope_point(a, float(t), sign))
                    tv.append(float(t))
                except DefectWalkError:
                    continue
            add(name, tv, pts)
        for k, ch in enumerate(hl.limit_lines(a)):
            seg = np.linspace(0.0, 1.0, max(2, n // 8))
            pts = ch.start + seg * (ch.end - ch.start)
            add(f"limit_line_{k}", seg, pts)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_weight(args) -> int:
    lattice = Lattice(args.lattice)
    a, b, omega, _ = _resolve_params(args)
    if a == 0:  # the diagonal coin, refused like its coins in _resolve_params
        raise DiagonalCoin("constant coin is diagonal: no localization (a = 0)")
    n = _size("--theta-grid", args.theta_grid, 8, MAX_THETA_GRID)
    thetas = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    branch = _branch_mask(a, thetas)  # the rows a checked call would refuse
    with np.errstate(all="ignore"):  # the branch rows may divide by zero
        if lattice is Lattice.HALF_LINE:
            ws = weight_halfline(a, b, thetas, check_branch=False)
            lines = ["theta,w"]
            for t, w, nan in zip(thetas, ws, branch):
                lines.append(f"{_fmt(t)},nan" if nan else f"{_fmt(t)},{_fmt(w)}")
        else:
            ws = weight_line(a, b, omega, thetas, check_branch=False).reshape(n, 4)
            lines = ["theta,w11_re,w11_im,w12_re,w12_im,w21_re,w21_im,w22_re,w22_im"]
            for t, w, nan in zip(thetas, ws, branch):
                flat = ",".join(f"{_fmt(v.real)},{_fmt(v.imag)}" for v in w)
                lines.append(f"{_fmt(t)}," + (",".join(["nan"] * 8) if nan else flat))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _verify_rows_wiener(rng):
    specs = [
        ("konno phi=pi (line)", WalkSpec(Lattice.LINE, hadamard(), konno_defect(math.pi))),
        ("hadamard (line, M0)", WalkSpec(Lattice.LINE, hadamard(), hadamard())),
        ("hadamard (halfline)", WalkSpec(Lattice.HALF_LINE, hadamard(), hadamard())),
    ]
    rows = []
    for name, spec in specs:
        q = Qubit.normalized(1.0, 1j)
        sim = oracles.wiener_average(oracles.simulated_moments(spec, 0, q, 400), 400)
        pred = oracles.wiener_prediction(spec, q)
        rows.append((f"wiener: {name}", abs(sim - pred), 2e-2))
    return rows


def _verify_rows_kmcg(rng):
    specs = [
        ("konno phi=pi (line)", WalkSpec(Lattice.LINE, hadamard(), konno_defect(math.pi))),
        ("a=b=0.5+0.5i (halfline)", spec_for_halfline_params(0.5 + 0.5j, 0.5 + 0.5j)),
    ]
    rows = []
    for name, spec in specs:
        sim = moments_at_origin(spec, 10)
        worst = 0.0
        for n in range(11):
            pred = oracles.walk_moment_prediction(spec, n)
            worst = max(worst, float(np.abs(np.asarray(pred) - sim[n]).max()))
        rows.append((f"kmcg: {name}", worst, 1e-6))
    return rows


def _verify_rows_brute(rng):
    rows = []
    for k in range(3):
        coin, defect = random_coin(rng), random_coin(rng)
        for lattice in (Lattice.LINE, Lattice.HALF_LINE):
            spec = WalkSpec(lattice, coin, defect)
            q = Qubit.normalized(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
            banded = return_probability_series(spec, 0, q, 20)[-1]
            dense = oracles.brute_force_return(spec, 0, q, 20)
            rows.append((f"brute: spec {k} {lattice.value}", abs(banded - dense), 1e-10))
    return rows


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = {
        "wiener": _verify_rows_wiener,
        "kmcg": _verify_rows_kmcg,
        "brute": _verify_rows_brute,
    }[args.suite](rng)
    ok = True
    out = []
    for name, residualv, tol in rows:
        passed = residualv <= tol
        ok = ok and passed
        out.append(f"{name:<40s} residual {residualv:.3e}  tol {tol:.1e}  {'PASS' if passed else 'FAIL'}")
    _emit(args, "\n".join(out) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectwalk",
        description="One-defect quantum walks: CMV simulation and localization analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="exact finite-time return probabilities (CSV n,p)")
    _add_coin_opts(p, with_params=False)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--qubit", default="1,0,0,0", help="re,im,re,im (normalized internally)")
    p.add_argument("--dimension", type=int, help="truncation size override")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="localization class and mass points (JSON)")
    _add_coin_opts(p)
    p.add_argument("--qubit", help="re,im,re,im for the return-probability entry")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("masses", help="mass points only (JSON)")
    _add_coin_opts(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_masses)

    p = sub.add_parser("return-prob", help="asymptotic return probability (JSON)")
    _add_coin_opts(p)
    p.add_argument("--qubit", help="re,im,re,im (default 1,0,0,0)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_return_prob)

    p = sub.add_parser("region", help="mass-point counts over a parameter grid (CSV)")
    p.add_argument("--lattice", required=True, choices=["line", "halfline"])
    p.add_argument("--a", help="fixed a as re,im: scan the b-plane")
    p.add_argument("--b", help="fixed b as re,im: scan the a-plane")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("curves", help="epicycloid/epitrochoid/envelope samples (CSV)")
    p.add_argument("--a", help="re,im (adds envelopes, arc and limit lines)")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("weight", help="absolutely continuous density samples (CSV)")
    _add_coin_opts(p)
    p.add_argument("--theta-grid", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("verify", help="built-in oracle cross-checks")
    p.add_argument("--suite", required=True, choices=["wiener", "kmcg", "brute"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except DefectWalkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
