"""Seeded end-to-end and per-layer benchmark of defectwalk.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload walk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Workloads (each a closed loop: one client in this process, the next task
starts when the previous one returns):

- ``walk``: ``simulate`` on seeded coin/defect pairs, both lattices, 600,
  2000 and 5000 steps at the default full-cone dimension.  The stepping
  kernel does nearly all the work; line 5000 (dim 20036) crosses the 2 MiB
  per-core L2 while the smaller sizes do not.
- ``map``: ``region --grid 128`` in three planes plus per-point ``classify``
  and ``masses`` calls.  All closed-form analytics and the CLI thread pool;
  the kernel does nothing.
- ``triangle``: the acceptance criterion-3 oracle triangle on seeded draws
  plus ``verify --suite wiener|kmcg|brute``.  Mostly quadrature, with many
  short walks at small, cache-resident dimensions.

``--trace 0`` prints the end-to-end metrics of untraced rounds; their times
are scaled to the reference speed of a spin loop timed before every task
(see ``end_to_end``).  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer metrics, unscaled.
Metric names and units are those declared in BENCHMARK.json.  Every output
is checked; failed operations are counted in ``failed``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, patched, profile_tasks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HARD_STOP_S = 110.0  # start no new round after this, whatever --seconds says

CORES = sorted(os.sched_getaffinity(0))

# The traced rounds must spend at most this share of task time outside every
# layer span (in the benchmark's own code between calls into the program).
MAX_UNCOVERED = 0.02

THROUGHPUT_NAME = {"walk": "cone_site_steps_per_s", "map": "grid_points_per_s", "triangle": "moments_per_s"}

SETUP_CODE = """\
import contextlib, io, json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import defectwalk.cli
imported = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = defectwalk.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"import_s": imported - start, "rc": rc, "bytes": len(out.getvalue())}))
"""


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_package():
    """Import defectwalk from this checkout's sources and nowhere else."""
    if not (SRC / "defectwalk" / "__init__.py").is_file():
        sys.exit(f"error: no defectwalk sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import defectwalk

    if Path(defectwalk.__file__).resolve().parent != SRC / "defectwalk":
        sys.exit(f"error: imported defectwalk from {defectwalk.__file__}, not {SRC}")
    return defectwalk


@dataclass
class Outcome:
    op: object
    seconds: float
    failure: str | None
    task: int = 0  # root span id in a traced round
    digest: str | None = None


def _spin() -> float:
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i
    return perf_counter() - start


# Spin-loop time of the core each task and setup run ran on, measured just
# before it; the end-to-end times are scaled by its median over the run.
SPIN_TIMES: list[float] = []

# Median spin time on the host the bounds were set on (2-vCPU Xeon KVM guest,
# Python 3.11), so that scaled times read close to seconds there.
REFERENCE_SPIN_S = 0.75e-3


def use_fastest_core():
    """Pin this thread to whichever allowed core runs a short loop fastest now.

    On a shared host each core switches between a fast and a slow state
    (pure Python about 1.45x apart), independently of the other cores and
    for seconds at a time; the whole host drifts as well (see end_to_end).
    Every task, and every setup interpreter, runs on
    one core chosen just before it; threads it starts inherit the choice.
    The chosen core's loop time is kept in SPIN_TIMES.
    """
    timings = []
    for core in CORES:
        if len(CORES) > 1:
            os.sched_setaffinity(0, {core})
        timings.append((min(_spin(), _spin()), core))
    spin, core = min(timings)
    if len(CORES) > 1:
        os.sched_setaffinity(0, {core})
    SPIN_TIMES.append(spin)


def run_round(ops, tracer=None) -> list[Outcome]:
    """One round: passes over the task list, each running the ops that have a
    pass left, so that every round runs the same operations; checks run after
    each timed call."""
    outcomes = []
    for rep in range(max(op.passes for op in ops)):
        for op in ops:
            if op.passes <= rep:
                continue
            out, failure = None, None
            gc.collect()  # every task starts from the same collector state
            use_fastest_core()
            with tracer.task() if tracer else contextlib.nullcontext(0) as task:
                start = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # every operation's failure is counted, none stops the run
                    failure = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
            if failure is None:
                try:
                    failure = op.check(out)
                except Exception as exc:
                    failure = f"check raised {type(exc).__name__}: {exc}"
            digest = hashlib.sha256(out[1].encode()).hexdigest() if op.digest and out else None
            outcomes.append(Outcome(op, seconds, failure, task, digest))
    return outcomes


class SetupRuns:
    """Fresh interpreters that import defectwalk and run the workload's smallest task.

    A few runs are launched before each round, so that the samples spread
    over the whole window instead of sharing one spell of the machine, and a
    fixed number per round keeps the failure fraction independent of how
    many rounds fit in the window.  A first, uncounted run warms the caches.
    """

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def launch(self, timed: bool = True):
        use_fastest_core()
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(self.argv)],
            capture_output=True, text=True, timeout=60,
        )
        seconds = perf_counter() - start
        if not timed:
            return
        self.attempted += 1
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
            ok = done.returncode == 0 and report["rc"] == 0 and report["bytes"] > 0
        except (ValueError, IndexError, KeyError):
            ok = False
        if not ok:
            self.failures.append(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        else:
            self.walls.append(seconds)
            self.imports.append(report["import_s"])


def run_rounds(wl, seconds: float, traced: bool, package, setup: SetupRuns):
    """Closed-loop rounds until the window is used (at least min_rounds).

    With ``traced`` each step is an untraced round followed by a traced one.
    Returns [(untraced outcomes, traced outcomes or None, spans or None)].
    """
    minimum = 1 if traced else wl.min_rounds
    setup.launch(timed=False)
    for call in wl.warmup:
        call()
    # what exists now lives for the whole run; the collection before each
    # task then walks only what the tasks themselves leave behind
    gc.collect()
    gc.freeze()
    steps = []
    start = perf_counter()
    while True:
        for _ in range(wl.setups_per_round):
            setup.launch()
        plain = run_round(wl.ops)
        traced_out = spans = None
        if traced:
            tracer = Tracer()
            with patched(tracer, package):
                traced_out = run_round(wl.ops, tracer)
            spans = tracer.spans
        steps.append((plain, traced_out, spans))
        elapsed = perf_counter() - start
        per_step = elapsed / len(steps)
        if len(steps) >= minimum and elapsed + per_step > seconds:
            break
        if elapsed > HARD_STOP_S:
            break
    return steps


def _timed(outcomes):
    return [o for o in outcomes if o.op.timed]


def median_or_zero(values) -> float:
    """Median, or 0 for a layer the workload never calls."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(wl, rounds, setup_walls) -> tuple[dict, list[str]]:
    """End-to-end figures of the untraced rounds.

    Each task of the list is timed once in each of its passes of each round,
    and its latency is the lowest of those times: the machine this was
    written on switches between a fast and a slow state (about 1.5x apart
    for pure Python) for seconds at a time, and the best of runs spread over
    the window is the figure such spells move least.  wall_s sums these
    latencies over the task list; the percentiles are taken over them.

    The whole host also drifts, on both cores at once and for minutes, by
    as much as 1.3x, which no statistic inside one run removes.  So every
    time is scaled by REFERENCE_SPIN_S over the median spin-loop time of the
    run (the loop runs on the task's core just before each task): it reports
    seconds at the reference speed of the loop.  The raw figures and the
    factor are printed beside them.
    """
    best: dict[int, float] = {}
    for r in rounds:
        for o in _timed(r):
            best[id(o.op)] = min(best.get(id(o.op), math.inf), o.seconds)
    latencies = sorted(best.values())
    n = len(latencies)
    tail_index = max(0, n - 11)  # ten samples lie beyond it
    wall = sum(latencies)
    work = sum(op.work for op in wl.ops if op.timed)
    raw = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * latencies[tail_index],
        "work_per_s": work / wall,
    }
    scale = REFERENCE_SPIN_S / statistics.median(SPIN_TIMES)
    values = {name: value / scale if name == "work_per_s" else value * scale for name, value in raw.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(o.seconds for o in _timed(r)) for r in rounds]
    passes = [op.passes for op in wl.ops if op.timed]
    notes = [
        f"rounds {len(rounds)}; round walls s: " + " ".join(f"{w:.4f}" for w in walls),
        f"setup runs {len(setup_walls)}; walls s: " + " ".join(f"{w:.4f}" for w in setup_walls),
        f"task latency = best of its runs in {len(rounds)} rounds ({min(passes)} to {max(passes)} "
        f"passes a round) for each of {n} tasks; task_tail_ms is "
        f"p{100.0 * (tail_index + 1) / n:.1f} of them ({n - tail_index - 1} beyond it)",
        f"spin loop median {1e3 * statistics.median(SPIN_TIMES):.4f} ms over {len(SPIN_TIMES)} samples, "
        f"reference {1e3 * REFERENCE_SPIN_S:.4f} ms: times scaled by {scale:.4f}",
        "unscaled: " + " ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"{THROUGHPUT_NAME[wl.name]} {values['work_per_s']:.6g} 1/s "
        f"(work_per_s counts {wl.work_unit})",
    ]
    return values, notes


def per_layer(wl, steps, setup_imports) -> tuple[dict, list[str], str | None]:
    """Per-layer figures from the traced rounds, plus the span coverage checks."""
    import workloads

    layer_rounds = {layer: [] for layer in LAYERS}
    untraced_walls, traced_walls, span_counts = [], [], []
    calls: dict[str, list[tuple[float, float]]] = {}
    evolve_ns: dict[str, list[tuple[float, float]]] = {}
    build_ms: dict[str, list[float]] = {}
    check_fail: dict[str, list[int]] = {}
    region_cli, emit_cli = [], []
    for plain, traced, spans in steps:
        profiles = profile_tasks(spans)
        span_counts.append(len(spans))
        untraced_walls.append(sum(o.seconds for o in _timed(plain)))
        traced_walls.append(sum(o.seconds for o in _timed(traced)))
        sums = dict.fromkeys(LAYERS, 0.0)
        fails: dict[str, int] = {}
        for o in traced:
            prof = profiles[o.task]
            kind = o.op.kind
            if not o.op.timed:  # known-defect build probes: counted, not part of the task list
                if kind.startswith("build_check."):
                    key = kind.split(".", 1)[1]
                    fails[key] = fails.get(key, 0) + (o.failure is not None)
                continue
            for layer, t in prof.layer_self.items():
                sums[layer] += t
            for name, samples in prof.calls.items():
                calls.setdefault(name, []).extend(samples)
            if kind.startswith("region."):
                region_cli.append(prof.layer_self.get("cli", 0.0))
            elif o.op.argv:  # parsing is the build_parser child; this is formatting and output
                emit_cli.append(sum(own for own, _ in prof.calls.get("cli.main", [])))
            if kind.startswith("simulate."):
                lattice, steps_n, dim = o.op.kernel[0]
                evolve_ns.setdefault(f"{lattice.value}.{steps_n}", []).append(
                    (prof.layer_self.get("cmv.evolve", 0.0), o.op.work))
                # the build simulate itself makes (cross-check off), at the task's dim
                build_ms.setdefault(f"{lattice.value}.{dim}", []).extend(
                    1e3 * inclusive for _, inclusive in prof.calls.get("cmv.build_transition", []))
        for key, count in fails.items():
            check_fail.setdefault(key, []).append(count)
        for layer in LAYERS:
            layer_rounds[layer].append(sums[layer])

    def med_calls(name: str, scale: float, inclusive: bool) -> float:
        return scale * median_or_zero(c[1] if inclusive else c[0] for c in calls.get(name, []))

    values = {f"layer.{layer}.self_ms": 1e3 * statistics.median(v) for layer, v in layer_rounds.items()}
    for lattice, steps_n, dim in workloads.walk_shapes():
        lat = lattice.value
        values[f"cmv.build.ms.{lat}.{dim}"] = median_or_zero(build_ms.get(f"{lat}.{dim}", []))
        values[f"cmv.build.check_fail.{lat}.{dim}"] = median_or_zero(check_fail.get(f"{lat}.{dim}", []))
        pairs = evolve_ns.get(f"{lat}.{steps_n}", [])
        work = sum(w for _, w in pairs)
        values[f"cmv.evolve.ns_per_cone_site_step.{lat}.{steps_n}"] = 1e9 * sum(t for t, _ in pairs) / work if work else 0.0
        values[f"cmv.evolve.bytes_per_step.{lat}.{steps_n}"] = workloads.kernel_bytes_per_step(lattice, dim)
    cone = full = 0
    for op in wl.ops:
        for lattice, steps_n, dim in op.kernel:
            cone += workloads.cone_site_steps(lattice, steps_n, dim)
            full += steps_n * (dim // 2)
    values["cmv.evolve.cone_frac"] = cone / full if full else 0.0
    self_sums = [sum(layer_rounds[layer][i] for layer in LAYERS) for i in range(len(steps))]
    uncovered = [b / t if t else 0.0 for b, t in zip(layer_rounds["bench"], traced_walls)]
    values.update({
        "line.classify.us": med_calls("line.classify", 1e6, False),
        "halfline.mass_point_count.us": med_calls("halfline.mass_point_count", 1e6, False),
        "halfline.mass_points.us": med_calls("halfline.mass_points", 1e6, False),
        "halfline.classify_region.ms": med_calls("halfline.classify_region", 1e3, False),
        "cli.region.overhead_ms": 1e3 * median_or_zero(region_cli),
        "cli.emit.ms": 1e3 * median_or_zero(emit_cli),
        "oracles.moment_by_quadrature.ms": med_calls("oracles.moment_by_quadrature", 1e3, True),
        "oracles.simulated_moments.ms": med_calls("oracles.simulated_moments", 1e3, True),
        "oracles.wiener_prediction.ms": med_calls("oracles.wiener_prediction", 1e3, True),
        "oracles.brute_force_return.ms": med_calls("oracles.brute_force_return", 1e3, True),
        "import.s": median_or_zero(setup_imports),
        "trace.untraced_wall_s": statistics.median(untraced_walls),
        "trace.traced_wall_s": statistics.median(traced_walls),
        "trace.self_sum_s": statistics.median(self_sums),
        "trace.uncovered_frac": max(uncovered),
        "trace.spans": statistics.median(span_counts),
    })
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    self_sum = values["trace.self_sum_s"]
    notes = [
        f"traced pairs {len(steps)}; layer self times sum to {self_sum:.4f} s per round; "
        f"untraced wall {values['trace.untraced_wall_s']:.4f} s; "
        f"tracing overhead {values['trace.overhead_s']:+.4f} s; "
        f"outside every layer span {values['trace.uncovered_frac']:.3%} of traced task time",
        "layer shares: " + ", ".join(
            f"{layer} {values[f'layer.{layer}.self_ms'] / 1e3 / self_sum:.1%}" for layer in LAYERS if self_sum),
    ]
    problems = []
    # time no layer span covers is benchmark code, or a call into the program
    # that no span wraps; either way the layer figures would miss it
    if values["trace.uncovered_frac"] > MAX_UNCOVERED:
        problems.append(f"{values['trace.uncovered_frac']:.2%} of traced task time lies outside every "
                        f"layer span (limit {MAX_UNCOVERED:.0%})")
    # the layer self times of each traced round must match that round's
    # untraced wall within the tracing overhead (plus a percent of slack)
    for self_round, traced_wall, untraced_wall in zip(self_sums, traced_walls, untraced_walls):
        overhead = traced_wall - untraced_wall
        if abs(self_round - untraced_wall) > abs(overhead) + 0.01 * untraced_wall + 50e-6 * len(wl.ops):
            problems.append(f"layer self times sum to {self_round:.4f} s against an untraced wall of "
                            f"{untraced_wall:.4f} s and a tracing overhead of {overhead:+.4f} s")
            break
    return values, notes, "; ".join(problems) or None


def cache_size(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": CORES,
        "tasks_run_on": "one core each, the fastest of the affinity set just before the task",
        "l2_bytes": cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_size("LEVEL3_CACHE_SIZE"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "QWALK_THREADS": os.environ["QWALK_THREADS"],
    }


def benchmark(args, package, size: str = "full") -> dict:
    import workloads

    # each task runs on one core, so region never runs more threads than cores
    os.environ["QWALK_THREADS"] = "1"
    print("env " + json.dumps(environment(args), sort_keys=True))

    wl = workloads.build(args.workload, args.seed, str(SRC), size)
    SPIN_TIMES.clear()
    setup = SetupRuns(wl.smallest)
    traced = bool(args.trace)
    steps = run_rounds(wl, args.seconds, traced, package, setup)

    outcomes = [o for plain, tr, _ in steps for o in plain + (tr or [])]
    attempted = len(outcomes) + setup.attempted
    failures = [o for o in outcomes if o.failure]
    failed = len(failures) + len(setup.failures)
    known = [o for o in failures if o.op.known_defect and o.op.known_defect(o.failure)]
    fatal = [o for o in failures if o not in known] or setup.failures
    print(f"fail_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations; "
          f"{len(known)} of them the known defects)")
    seen = set()
    for o in failures:
        if (o.op.kind, o.failure) not in seen:
            seen.add((o.op.kind, o.failure))
            print(f"fail {'known-defect ' if o in known else ''}{o.op.kind}: {o.failure}")
    for reason in setup.failures:
        print(f"fail setup: {reason}")
    digests = {id(o.op): o.digest for o in reversed(steps[0][0]) if o.digest}
    for i, op in enumerate(wl.ops):
        if id(op) in digests:
            print(f"sha256 {op.kind}#{i} {digests[id(op)]}")

    problem = None
    units = declared_metrics("per_layer" if traced else "end_to_end")
    if traced:
        metrics, notes, problem = per_layer(wl, steps, setup.imports)
    else:
        if not setup.walls:
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        metrics, notes = end_to_end(wl, [plain for plain, _, _ in steps], setup.walls)
    for note in notes:
        print(note)
    if problem:
        print(f"fail trace: {problem}")
    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json declares metrics this run does not compute: {missing}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    return {
        "correct": not fatal and problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------------------
# self-test: the checks reject corrupted results; tiny runs complete
# ---------------------------------------------------------------------------


def self_test(package) -> list[str]:
    import numpy as np

    import workloads

    problems = []

    def expect_reject(label: str, op, out):
        if op.check(out) is None:
            problems.append(f"{label}: corrupted result accepted")

    walk = workloads.build("walk", 3, str(SRC), "tiny")
    op = next(o for o in walk.ops if o.kind.startswith("simulate."))
    rc, text, err = op.run()
    if op.check((rc, text, err)) is not None:
        problems.append(f"walk: clean result rejected: {op.check((rc, text, err))}")
    rows = text.splitlines()
    n = op.check.args[3][0]  # a step the brute-force oracle samples
    idx, p = rows[n + 1].split(",")
    rows[n + 1] = f"{idx},{float(p) + 1e-6!r}"
    expect_reject("walk: perturbed p(n)", op, (rc, "\n".join(rows) + "\n", err))
    rows = text.splitlines()
    rows[-1] = rows[-1].split(",")[0] + ",1.0000001"
    expect_reject("walk: p above 1", op, (rc, "\n".join(rows) + "\n", err))

    probe = next(o for o in walk.ops if o.kind.startswith("build_check."))
    if probe.known_defect("ValueError: a different failure of the build"):
        problems.append("walk: build probe excuses a failure other than the cross-check gap")

    fmap = workloads.build("map", 3, str(SRC), "tiny")
    for op in (o for o in fmap.ops if o.known_defect):
        rc, text, err = op.run()
        failure = op.check((rc, text, err))
        if failure is not None and not op.known_defect(failure):
            problems.append(f"map: atom-miss input fails otherwise than by the known defect: {failure}")
        doc = json.loads(text)
        doc["mass_points"].append({"z_re": 1.0, "z_im": 0.0, "mu": 0.5, "side": "GammaPlus"})
        failure = op.check((rc, json.dumps(doc), err))
        if failure is None or op.known_defect(failure):
            problems.append("map: a bad atom on an atom-miss input passes as the known defect")
    op = next(o for o in fmap.ops if o.kind == "masses.halfline" and not o.known_defect)
    rc, text, err = op.run()
    doc = json.loads(text)
    pts = doc["mass_points"]
    doc["mass_points"] = pts[1:] if pts else [{"z_re": 1.0, "z_im": 0.0, "mu": 0.5, "side": "GammaPlus"}]
    expect_reject("map: wrong atom count", op, (rc, json.dumps(doc), err))
    op = next(o for o in fmap.ops if o.kind.startswith("region."))
    rc, text, err = op.run()
    rows = text.splitlines()
    mid = len(rows) // 2
    rows[mid] = ",".join(rows[mid].split(",")[:2] + ["-1"])
    expect_reject("map: sentinel inside the disk", op, (rc, "\n".join(rows) + "\n", err))

    tri = workloads.build("triangle", 3, str(SRC), "tiny")
    op = next(o for o in tri.ops if o.kind.startswith("moments."))
    predicted, simulated = op.run()
    shifted = np.array(simulated, copy=True)
    shifted[3] += 1e-5
    expect_reject("triangle: shifted moment", op, (predicted, shifted))
    op = next(o for o in tri.ops if o.kind.startswith("wiener."))
    simulated, analytic = op.run()
    expect_reject("triangle: shifted Wiener prediction", op, (simulated, analytic + 0.05))

    for name in ("walk", "map", "triangle"):
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=trace)
            result = benchmark(args, package, "tiny")
            values = result["metrics"]
            if not all(math.isfinite(v["value"]) for v in values.values()):
                problems.append(f"tiny {name} trace={trace}: metrics incomplete")
            if not result["correct"]:
                problems.append(f"tiny {name} trace={trace}: run not correct")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["walk", "map", "triangle"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    package = load_package()
    if args.self_test:
        problems = self_test(package)
        for p in problems:
            print(f"self-test FAIL {p}")
        print("self-test ok" if not problems else f"self-test: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args, package)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
