"""The benchmark's traced run wraps named defectwalk functions, and its
workloads call the program with fixed arguments; a refactor that renames or
moves one of those functions, or changes one of those signatures, breaks the
benchmark."""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import random_qubit, random_spec

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    for owner_name, attr in tracing.TARGETS:
        module, _, cls = owner_name.partition(".")
        owner = importlib.import_module(f"defectwalk.{module}")
        if cls:
            owner = getattr(owner, cls)
        # the tracer looks targets up with vars(), so inherited or
        # re-exported names do not count
        assert callable(vars(owner).get(attr)), f"{owner_name}.{attr}"


@pytest.mark.parametrize("lattice", ["line", "halfline"])
def test_spans_of_one_moment_prediction(tracing, lattice):
    # the traced round attributes the quadrature's time by these spans: a
    # refactor that inlines a traced target would move its time to another
    # layer unseen, so the spans recorded per call are pinned here
    import defectwalk
    from defectwalk import oracles
    from defectwalk.coins import Lattice, WalkSpec, hadamard, konno_defect, spec_for_halfline_params

    if lattice == "line":
        spec, atoms = WalkSpec(Lattice.LINE, hadamard(), konno_defect(np.pi)), "line.classify"
        weight = "schur.weight_line"
    else:
        spec, atoms = spec_for_halfline_params(0.5 + 0.5j, 0.5 + 0.5j), "halfline.mass_points"
        weight = "schur.weight_halfline"
    tracer = tracing.Tracer()
    with tracing.patched(tracer, defectwalk), tracer.task():
        oracles.walk_moment_prediction(spec, 8)
    assert Counter(s.name for s in tracer.spans) == {
        tracing.TASK: 1,
        "oracles.walk_moment_prediction": 1,
        "oracles.moment_by_quadrature": 1,
        "schur.support_arcs": 1,
        "schur.arc_nodes": 4,
        weight: 1,
        atoms: 1,
    }


def test_reference_count_signature():
    # perfbench/workloads.reference_counts calls this in a child process
    from defectwalk import halfline

    count = halfline.mass_point_count(0.5 + 0.5j, 0.5 + 0.5j, grid=4096)
    assert type(count) is int and count == 1


def test_walk_calls_of_the_benchmark(rng, capsys):
    # perfbench/workloads.py makes these calls: moments_at_origin and
    # return_probability_series with a dimension (the moment and line average
    # checks), simulated_moments (the Wiener check) and simulate --dimension
    # (the walk warm-up); the dimension changes no output
    from defectwalk import cli, cmv, oracles
    from defectwalk.coins import Lattice

    for lattice, shape in ((Lattice.LINE, (21, 2, 2)), (Lattice.HALF_LINE, (21,))):
        spec, q = random_spec(rng, lattice), random_qubit(rng)
        moments = cmv.moments_at_origin(spec, 20, dimension=cmv.min_dimension(20))
        assert moments.shape == shape and np.array_equal(moments, cmv.moments_at_origin(spec, 20))
        series = cmv.return_probability_series(spec, 0, q, 800, dimension=cmv.min_dimension(800))
        assert series.shape == (801,) and np.isfinite(series).all()
        assert oracles.simulated_moments(spec, 0, q, 400).shape == (401,)
        flag = ",".join(repr(float(x)) for v in spec.coin.matrix.ravel() for x in (v.real, v.imag))
        argv = ["simulate", "--lattice", lattice.value, "--coin=" + flag, "--defect=" + flag,
                "--steps", "8", "--qubit=0.6,0,0.8,0", "--dimension", str(cmv.default_dimension(lattice, 600))]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("n,p")
