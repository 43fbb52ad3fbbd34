"""The three seeded workloads, their operations, and the check on every output.

Each workload is a fixed task list drawn from the seed; the benchmark runs it
as a closed loop (one client, the next task starts when the previous one
returns) and repeats the same list in rounds.  Repeating identical inputs
keeps the failure fraction a property of the seed, not of how many rounds
fit in the measurement window.  Short tasks run in several passes of each
round, so that their best time rests on more samples spread over the window.

Operations with a ``known_defect`` predicate probe a defect that exists at
the time the benchmark was written.  Their failures are counted like any
other; a failure the predicate recognises as that defect does not mark the
run as incorrect, and any other failure of the same operation does.  Do not
shrink, re-seed or drop them to make the failures go away.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from defectwalk import cli, cmv, halfline, line, oracles
from defectwalk.coins import (
    Lattice,
    Qubit,
    WalkSpec,
    hat_qubit,
    random_coin,
    spec_for_halfline_params,
    spec_for_line_params,
)
from defectwalk.errors import DefectWalkError
from defectwalk.schur import g_line_boundary, h_halfline_boundary

REFERENCE_GRID = 2**20  # atom-count reference resolution for the map checks

# Criterion-3 tolerances of the acceptance suite.
MOMENT_TOL = 1e-6
AVERAGE_TOL = 0.02
RESIDUAL_TOL = 1e-10
BRUTE_TOL = 1e-10

# The failures the known-defect probes expect; any other failure is fatal.
ATOM_MISS = "fewer half-line atoms than the reference grid"
BUILD_CHECK_GAP = "AssertionError: coin-action and CMV constructions disagree by"

# Two half-line inputs where the 4096-point scan misses atoms: the 2**20
# reference finds 2 where the code reports 0, and 3 where it reports 1.
ATOM_MISS_CASES = (
    (complex(-0.5434497535063831, 0.6101941756954485), complex(0.4713107890953063, 0.8815603397065286)),
    (complex(0.29105185925178745, -0.6105361335158941), complex(0.9972764540771692, -0.07096467506029103)),
)


@dataclass
class Op:
    """One operation of a workload: a timed call and the check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None
    work: float = 0.0  # throughput units completed (cone site-steps, grid points, moments)
    timed: bool = True  # part of the task list behind wall_s, latency and throughput
    known_defect: Callable[[str], bool] | None = None  # True for the probed defect's failure
    kernel: tuple = ()  # (lattice, steps, dim) of each kernel call the op makes
    argv: list[str] | None = None  # set for in-process CLI calls
    digest: bool = False  # record a sha256 of the CLI output
    passes: int = 1  # times the op runs in each round, in separate passes over the task list


@dataclass
class Workload:
    name: str
    ops: list[Op]
    smallest: list[str]  # argv of the cheapest CLI task, run by setup_s
    work_unit: str  # what one unit of Op.work counts
    min_rounds: int  # rounds a run makes even if the window is shorter
    setups_per_round: int  # fresh-interpreter setup runs launched before each round
    warmup: list[Callable[[], object]] = field(default_factory=list)  # untimed, before round 1
    references: list[tuple[complex, complex]] = field(default_factory=list)
    reference_counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``defectwalk`` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _reals(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _coin_flag(coin) -> str:
    return _reals(x for v in coin.matrix.ravel() for x in (v.real, v.imag))


def _complex_flag(z: complex) -> str:
    return _reals((z.real, z.imag))


def _disk(rng, r_max: float, r_min: float = 0.0) -> complex:
    return complex(rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform()))


def _qubit(rng) -> tuple[Qubit, list[float]]:
    v = [float(x) for x in rng.normal(size=4)]
    return Qubit.normalized(complex(v[0], v[1]), complex(v[2], v[3])), v


def cone_sites(lattice: Lattice, n: int) -> int:
    """Sites the walk can reach in n steps from the origin."""
    return 2 * n + 1 if lattice is Lattice.LINE else n + 1


def cone_site_steps(lattice: Lattice, steps: int, dim: int) -> int:
    """Sum over steps 1..steps of the in-cone sites inside the truncation."""
    sites = dim // 2
    return sum(min(cone_sites(lattice, n), sites) for n in range(1, steps + 1))


def kernel_bytes_per_step(lattice: Lattice, dim: int) -> int:
    """Bytes one banded step must at least move: the band plus state in and out."""
    halfwidth = 4 if lattice is Lattice.LINE else 2
    return 16 * dim * (2 * halfwidth + 1 + 2)


def reference_counts(src: str, pairs: list[tuple[complex, complex]]) -> list[int]:
    """Half-line atom counts on the 2**20 grid, in a child process.

    The reference grid needs about 100 MB; computing it in a child keeps the
    benchmark's own peak RSS a measure of the program under test.
    """
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from defectwalk import halfline\n"
        "pairs = json.load(sys.stdin)\n"
        f"print(json.dumps([halfline.mass_point_count(complex(*a), complex(*b), grid={REFERENCE_GRID})"
        " for a, b in pairs]))\n"
    )
    payload = json.dumps([[[a.real, a.imag], [b.real, b.imag]] for a, b in pairs])
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        input=payload,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# walk: the stepping kernel at three sizes on both lattices
# ---------------------------------------------------------------------------

WALK_MIX = {
    # (steps, coin pairs per lattice, passes per round on the line, on the
    # half line); the round's cost is mostly line 5000.  With 28 tasks the
    # median falls among the line 600-step tasks and the tail (ten tasks
    # beyond it) on the second half-line 2000-step task, each well inside one
    # class of task rather than on the edge between two; those classes run in
    # several passes of each round.
    "full": ((600, 8, 4, 4), (2000, 5, 1, 3), (5000, 1, 1, 1)),
    "tiny": ((20, 2, 2, 2), (40, 1, 1, 2), (60, 1, 1, 1)),
}


def walk_shapes(size: str = "full") -> list[tuple[Lattice, int, int]]:
    """(lattice, steps, default dimension) of each task shape of the walk workload."""
    return [
        (lattice, steps, cmv.default_dimension(lattice, steps))
        for lattice in (Lattice.LINE, Lattice.HALF_LINE)
        for steps, *_ in WALK_MIX[size]
    ]


def _check_simulate(spec: WalkSpec, q: Qubit, steps: int, sample: list[int], brute: dict, out) -> str | None:
    rc, text, err = out
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    rows = text.splitlines()
    if not rows or rows[0] != "n,p" or len(rows) != steps + 2:
        return "malformed CSV"
    p = []
    for n, row in enumerate(rows[1:]):
        idx, val = row.split(",")
        if int(idx) != n:
            return f"row {n} labelled {idx}"
        p.append(float(val))
    if abs(p[0] - 1.0) > 1e-12:
        return f"p(0) = {p[0]!r}"
    bad = [n for n, v in enumerate(p) if not 0.0 <= v <= 1.0]
    if bad:
        return f"p({bad[0]}) = {p[bad[0]]!r} outside [0, 1]"
    for n in sample:
        if n not in brute:
            brute[n] = oracles.brute_force_return(spec, 0, q, n)
        if abs(p[n] - brute[n]) > BRUTE_TOL:
            return f"p({n}) = {p[n]!r} but brute force gives {brute[n]!r}"
    return None


def _build_checked(spec: WalkSpec, dim: int) -> cmv.BandedUnitary:
    return cmv.build_transition(spec, dim)  # looked up per call, so a trace sees it


def _check_build(out) -> str | None:
    return None if isinstance(out, cmv.BandedUnitary) else "no matrix returned"


def build_walk(seed: int, size: str = "full") -> Workload:
    rng = np.random.default_rng(seed)
    pairs = []
    for lattice in (Lattice.LINE, Lattice.HALF_LINE):
        for steps, count, *passes in WALK_MIX[size]:
            for _ in range(count):
                coin, defect = random_coin(rng), random_coin(rng)
                q, qv = _qubit(rng)
                spec = WalkSpec(lattice, coin, defect)
                dim = cmv.default_dimension(lattice, steps)
                argv = [
                    "simulate", "--lattice", lattice.value,
                    "--coin=" + _coin_flag(coin), "--defect=" + _coin_flag(defect),
                    "--steps", str(steps), "--qubit=" + _reals(qv),
                ]
                sample = sorted(int(n) for n in rng.choice(np.arange(1, min(64, steps) + 1), 4, replace=False))
                task = Op(
                    kind=f"simulate.{lattice.value}.{steps}",
                    run=partial(call_cli, argv),
                    check=partial(_check_simulate, spec, q, steps, sample, {}),
                    work=cone_site_steps(lattice, steps, dim),
                    kernel=((lattice, steps, dim),),
                    argv=argv,
                    digest=True,
                    passes=passes[lattice is Lattice.HALF_LINE],
                )
                # the library default keeps the Lambda C Lambda^dagger
                # cross-check on; its fixed 1e-12 tolerance fails at large dim
                probe = Op(
                    kind=f"build_check.{lattice.value}.{dim}",
                    run=partial(_build_checked, spec, dim),
                    check=_check_build,
                    timed=False,
                    known_defect=_is_build_check_gap,
                )
                pairs.append((task, probe))
    ops = [op for i in rng.permutation(len(pairs)) for op in pairs[i]]
    smallest = min((op for op in ops if op.argv), key=lambda op: op.work).argv
    # a few steps at the largest dimension of each lattice, so allocator
    # thresholds have adapted to the big arrays before the first timed task
    warmup = []
    for lattice in (Lattice.LINE, Lattice.HALF_LINE):
        big = max((op for op in ops if op.argv and op.argv[2] == lattice.value), key=lambda op: op.work)
        dim = big.kernel[0][2]
        warmup.append(partial(call_cli, big.argv[:-2] + ["8", big.argv[-1], "--dimension", str(dim)]))
    return Workload("walk", ops, smallest, "cone_site_steps", min_rounds=2, setups_per_round=3, warmup=warmup)


# ---------------------------------------------------------------------------
# map: closed-form analytics and the region scan
# ---------------------------------------------------------------------------

MAP_SIZE = {
    # grid, region points checked against the reference per plane,
    # per-point calls: (line classify, line masses, half-line classify, half-line masses),
    # and passes per round of the per-point calls.  Of the 41 tasks, the 26
    # cheapest (line calls and half-line masses, about 2 ms) hold the median
    # and the 12 half-line classify calls (about 7 ms) the tail, its fifth.
    "full": (128, 3, (8, 8, 12, 8), 6),
    "tiny": (16, 2, (1, 1, 1, 1), 2),
}

LINE_COUNTS = {"M0": 0, "M2plus": 2, "M2minus": 2, "M4": 4}


def _line_atoms_bad(a: complex, b: complex, points: list[dict]) -> str | None:
    for pt in points:
        z = complex(pt["z_re"], pt["z_im"])
        res = abs(g_line_boundary(a, b, cmath.phase(z)) - 1.0)
        if res > RESIDUAL_TOL or not pt["m"] > 0:
            return f"line atom at {z} has residual {res:.2e}, m {pt['m']}"
    return None


def _halfline_atoms_bad(a: complex, b: complex, points: list[dict], expected: int) -> str | None:
    for pt in points:
        z = complex(pt["z_re"], pt["z_im"])
        res = abs(h_halfline_boundary(a, b, cmath.phase(z)) - 1.0)
        if res > RESIDUAL_TOL or not pt["mu"] > 0 or pt["side"] not in ("GammaPlus", "GammaMinus"):
            return f"half-line atom at {z} has residual {res:.2e}, mu {pt['mu']}, side {pt['side']}"
    if len(points) < expected:
        return f"{ATOM_MISS}: {len(points)}, reference grid finds {expected}"
    if len(points) != expected:
        return f"{len(points)} half-line atoms, reference grid finds {expected}"
    return None


def _is_atom_miss(failure: str) -> bool:
    return failure.startswith(ATOM_MISS)


def _is_build_check_gap(failure: str) -> bool:
    return failure.startswith(BUILD_CHECK_GAP)


def _json_doc(out) -> tuple[dict | None, str | None]:
    rc, text, err = out
    if rc != 0:
        return None, f"exit {rc}: {err.strip()}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "malformed JSON"


def _check_point(wl: Workload, lattice: Lattice, command: str, a: complex, b: complex, out) -> str | None:
    doc, bad = _json_doc(out)
    if bad:
        return bad
    points = doc["mass_points"]
    if lattice is Lattice.LINE:
        if command == "classify" and LINE_COUNTS.get(doc["label"]) != len(points):
            return f"label {doc['label']} with {len(points)} atoms"
        return _line_atoms_bad(a, b, points)
    if command == "classify" and doc["l_label"] not in ("L0", "L1", "L2"):
        return f"region label {doc['l_label']}"
    return _halfline_atoms_bad(a, b, points, wl.reference_counts[(a, b)])


def _check_region(wl: Workload, lattice: Lattice, fixed_is_a: bool, fixed: complex, grid: int, probes: list[int], out) -> str | None:
    rc, text, err = out
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    rows = text.splitlines()
    if len(rows) != grid * grid + 1:
        return "malformed CSV"
    cap = 4 if lattice is Lattice.LINE else 3
    counts = []
    for row in rows[1:]:
        re_, im_, c = row.split(",")
        point, c = complex(float(re_), float(im_)), int(c)
        if (abs(point) >= 1.0) != (c == -1):
            return f"sentinel wrong at {point}: {c}"
        if c != -1 and not 0 <= c <= cap:
            return f"count {c} at {point}"
        counts.append((point, c))
    for i in probes:
        point, c = counts[i]
        a, b = (fixed, point) if fixed_is_a else (point, fixed)
        if lattice is Lattice.LINE:
            expected = line.classify(a, b).n_mass_points
        else:
            expected = wl.reference_counts[(a, b)]
        if c != expected:
            return f"{c} atoms at a={a}, b={b}; reference {expected}"
    return None


def _grid_coords(grid: int) -> list[float]:
    return [-1.0 + (2 * i + 1) / grid for i in range(grid)]


def _decidable(a: complex, b: complex) -> bool:
    """Whether every per-point command can decide (a, b) without a guard."""
    try:
        halfline.classify_region(a)
        halfline.mass_points(a, b)
        line.classify(a, b)
    except DefectWalkError:
        return False
    return True


def build_map(seed: int, size: str = "full") -> Workload:
    rng = np.random.default_rng(seed)
    grid, n_checked, per_point, point_passes = MAP_SIZE[size]
    wl = Workload("map", [], [], "grid_points", min_rounds=2, setups_per_round=2)
    coords = _grid_coords(grid)
    inside = [i for i, (im, re) in enumerate((im, re) for im in coords for re in coords) if re * re + im * im < 1.0]
    planes = (
        (Lattice.LINE, False, _disk(rng, 0.9)),
        (Lattice.HALF_LINE, True, _disk(rng, 0.9, 0.15)),
        (Lattice.HALF_LINE, False, _disk(rng, 0.9)),
    )
    for lattice, fixed_is_a, fixed in planes:
        probes = sorted(int(i) for i in rng.choice(inside, n_checked, replace=False))
        if lattice is Lattice.HALF_LINE:
            for i in probes:
                point = complex(coords[i % grid], coords[i // grid])
                wl.references.append((fixed, point) if fixed_is_a else (point, fixed))
        flag = "--a=" if fixed_is_a else "--b="
        argv = ["region", "--lattice", lattice.value, flag + _complex_flag(fixed), "--grid", str(grid)]
        plane = "b" if fixed_is_a else "a"
        wl.ops.append(Op(
            kind=f"region.{lattice.value}.{plane}",
            run=partial(call_cli, argv),
            check=partial(_check_region, wl, lattice, fixed_is_a, fixed, grid, probes),
            work=grid * grid,
            argv=argv,
        ))

    def point_op(lattice, command, a, b, known_defect=None):
        argv = [command, "--lattice", lattice.value, "--a=" + _complex_flag(a), "--b=" + _complex_flag(b)]
        return Op(
            kind=f"{command}.{lattice.value}",
            run=partial(call_cli, argv),
            check=partial(_check_point, wl, lattice, command, a, b),
            argv=argv,
            known_defect=known_defect,
            passes=point_passes,
        )

    kinds = ((Lattice.LINE, "classify"), (Lattice.LINE, "masses"), (Lattice.HALF_LINE, "classify"), (Lattice.HALF_LINE, "masses"))
    for (lattice, command), count in zip(kinds, per_point):
        for _ in range(count):
            while True:
                a, b = _disk(rng, 0.9, 0.15), _disk(rng, 0.9)
                if _decidable(a, b):
                    break
            if lattice is Lattice.HALF_LINE:
                wl.references.append((a, b))
            wl.ops.append(point_op(lattice, command, a, b))
    for a, b in ATOM_MISS_CASES:
        wl.references.append((a, b))
        wl.ops.append(point_op(Lattice.HALF_LINE, "masses", a, b, known_defect=_is_atom_miss))
    wl.ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    wl.smallest = next(op.argv for op in wl.ops if op.kind == "masses.line")
    firsts = {op.kind: op for op in reversed(wl.ops)}.values()
    wl.warmup = [
        partial(call_cli, op.argv[:-1] + ["16"]) if op.kind.startswith("region.") else op.run
        for op in firsts
    ]
    return wl


# ---------------------------------------------------------------------------
# triangle: quadrature, Wiener and limit oracles against simulation
# ---------------------------------------------------------------------------

# draws per lattice: (line, half line).  Twice as many half-line draws keep
# the median task inside one class of task (line Wiener runs), not between two.
TRIANGLE_DRAWS = {"full": (6, 12), "tiny": (1, 1)}
MOMENTS = 20


def _draw_line(rng):
    """Line parameters with class margins and separated atoms, as in criterion 3,
    so that finite-time averages resolve the individual atoms."""
    while True:
        a, b = _disk(rng, 0.9, 0.15), _disk(rng, 0.9)
        omega = complex(np.exp(2j * np.pi * rng.uniform()))
        if min(abs(abs(a - z / 2.0) - 0.5) for z in line.zeta_pm(b)) < 0.02:
            continue
        zs = [pt.z0 for pt in line.classify(a, b, omega).points]
        if len(zs) > 1 and min(abs(x - y) for i, x in enumerate(zs) for y in zs[i + 1:]) < 0.15:
            continue
        return a, b, omega


def _draw_halfline(rng):
    while True:
        a, b = _disk(rng, 0.9, 0.15), _disk(rng, 0.9)
        pts = halfline.mass_points(a, b)
        t_lo, t_hi = halfline.sigma_arc(a)
        if any(min(pt.t - t_lo, t_hi - pt.t) < 0.05 for pt in pts):
            continue
        zs = [pt.z0 for pt in pts]
        if len(zs) > 1 and min(abs(x - y) for i, x in enumerate(zs) for y in zs[i + 1:]) < 0.15:
            continue
        return a, b


def _moments(spec: WalkSpec):
    predicted = [oracles.walk_moment_prediction(spec, n) for n in range(MOMENTS + 1)]
    return predicted, cmv.moments_at_origin(spec, MOMENTS, dimension=cmv.min_dimension(MOMENTS))


def _check_moments(spec: WalkSpec, params: tuple, out) -> str | None:
    predicted, simulated = out
    gap = max(float(np.abs(np.asarray(p) - simulated[n]).max()) for n, p in enumerate(predicted))
    if gap > MOMENT_TOL:
        return f"moment gap {gap:.2e}"
    if spec.lattice is Lattice.LINE:
        a, b, omega = params
        res = [line.residual(a, b, pt) for pt in line.classify(a, b, omega).points]
    else:
        a, b = params
        res = [halfline.residual(a, b, pt) for pt in halfline.mass_points(a, b)]
    if res and max(res) > RESIDUAL_TOL:
        return f"root residual {max(res):.2e}"
    return None


LONGER = 8  # horizon factor of the convergence re-check


def _wiener(spec: WalkSpec, q: Qubit, scale: int = 1):
    steps = 400 * scale
    simulated = oracles.wiener_average(oracles.simulated_moments(spec, 0, q, steps), steps)
    return simulated, oracles.wiener_prediction(spec, q)


def _average(spec: WalkSpec, params: tuple, q: Qubit, scale: int = 1):
    hatted = hat_qubit(q, 0, spec)
    if spec.lattice is Lattice.LINE:
        a, b, omega = params
        analytic = line.return_probability_limit(a, b, omega, hatted)
        n = 800 * scale
        series = cmv.return_probability_series(spec, 0, q, n, dimension=cmv.min_dimension(n))
        return float(np.mean(series[3 * n // 4 :: 2])), analytic
    a, b = params
    analytic = halfline.return_probability_cesaro(a, b, hatted)
    n = 400 * scale
    series = cmv.return_probability_series(spec, 0, q, n)
    return float(np.mean(series[3 * n // 4 :])), analytic


def _check_gap(label: str, run: Callable[[int], tuple], memo: dict, out) -> str | None:
    simulated, analytic = out
    gap = abs(simulated - analytic)
    if gap <= AVERAGE_TOL:
        return None
    # A few draws in a hundred converge too slowly for the criterion-3
    # horizon (a Wiener gap of 0.026 at 400 steps falls to 0.005 at 3200).
    # Such an output passes only if it is exactly what the program computes
    # for these inputs and the simulation over a horizon LONGER times as long
    # comes within the same tolerance of its analytic value.
    if not memo:
        memo["base"], memo["longer"] = run(1), run(LONGER)
    longer_gap = abs(memo["longer"][0] - analytic)
    if out == memo["base"] and longer_gap <= AVERAGE_TOL:
        return None
    return f"{label} gap {gap:.4f}, and {longer_gap:.4f} over a {LONGER}x longer horizon"


def _check_verify(out) -> str | None:
    rc, text, err = out
    if rc != 0:
        return f"exit {rc}: {err.strip() or text.strip()}"
    rows = text.splitlines()
    if not rows or not all(row.endswith("PASS") for row in rows):
        return "a verify row did not pass"
    return None


def build_triangle(seed: int, size: str = "full") -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for lattice, draws in zip((Lattice.LINE, Lattice.HALF_LINE), TRIANGLE_DRAWS[size]):
        for _ in range(draws):
            if lattice is Lattice.LINE:
                params = _draw_line(rng)
                spec = spec_for_line_params(*params)
                long_run = (800, cmv.min_dimension(800))
                vectors = 2  # the line moment block steps two basis vectors
            else:
                params = _draw_halfline(rng)
                spec = spec_for_halfline_params(*params)
                long_run = (400, cmv.default_dimension(lattice, 400))
                vectors = 1
            q, _ = _qubit(rng)
            small = (lattice, MOMENTS, cmv.min_dimension(MOMENTS))
            ops += [
                Op(
                    kind=f"moments.{lattice.value}",
                    run=partial(_moments, spec),
                    check=partial(_check_moments, spec, params),
                    work=MOMENTS + 1,
                    kernel=(small,) * vectors,
                ),
                Op(
                    kind=f"wiener.{lattice.value}",
                    run=partial(_wiener, spec, q),
                    check=partial(_check_gap, "Wiener average", partial(_wiener, spec, q), {}),
                    kernel=((lattice, 400, cmv.default_dimension(lattice, 400)),),
                ),
                Op(
                    kind=f"average.{lattice.value}",
                    run=partial(_average, spec, params, q),
                    check=partial(_check_gap, "return average", partial(_average, spec, params, q), {}),
                    kernel=((lattice, *long_run),),
                ),
            ]
    for suite in ("wiener", "kmcg", "brute"):
        argv = ["verify", "--suite", suite, "--seed", str(seed)]
        ops.append(Op(kind=f"verify.{suite}", run=partial(call_cli, argv), check=_check_verify, argv=argv))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    smallest = ["verify", "--suite", "brute", "--seed", str(seed)]
    warmup = [op.run for op in {op.kind: op for op in reversed(ops)}.values()]
    return Workload("triangle", ops, smallest, "moments", min_rounds=2, setups_per_round=1, warmup=warmup)


DRAWS = {"walk": build_walk, "map": build_map, "triangle": build_triangle}


def build(name: str, seed: int, src: str, size: str = "full") -> Workload:
    """Draw a workload from the seed and compute its references (untimed)."""
    wl = DRAWS[name](seed, size)
    if wl.references:
        counts = reference_counts(src, wl.references)
        wl.reference_counts = dict(zip(wl.references, counts))
    return wl

