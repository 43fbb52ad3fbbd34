import csv
import importlib.util
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from defectwalk.cli import _parse_coin, _parse_qubit, main
from defectwalk.cmv import return_probability_series
from defectwalk.coins import Lattice, WalkSpec

S2 = math.sqrt(2.0)
H_FLAG = f"{1/S2},0,{1/S2},0,{1/S2},0,{-1/S2},0"
KONNO_PI_FLAG = f"{1/S2},0,{-1/S2},0,{-1/S2},0,{-1/S2},0"
IDENTITY_FLAG = "1,0,0,0,0,0,1,0"


def _load_tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digests = _load_tool("cli_digests")


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestSimulate:
    def test_csv_shape_and_determinism(self, tmp_path):
        args = [
            "simulate", "--lattice", "line", "--coin", H_FLAG, "--defect", KONNO_PI_FLAG,
            "--steps", "24", "--qubit", "1,0,0,0",
        ]
        code1, text1 = run_cli(tmp_path, *args)
        code2, text2 = run_cli(tmp_path, *args)
        assert code1 == code2 == 0
        assert text1 == text2
        rows = list(csv.DictReader(io.StringIO(text1)))
        assert len(rows) == 25
        assert rows[0]["p"] == "1"
        assert float(rows[13]["p"]) == 0.0  # odd step on the line

    def test_rows_match_per_point_formatting(self, tmp_path):
        args = [
            "simulate", "--lattice", "halfline", "--coin", H_FLAG, "--defect", KONNO_PI_FLAG,
            "--steps", "40", "--qubit", "0.6,0,0,0.8",
        ]
        code, text = run_cli(tmp_path, *args)
        assert code == 0
        spec = WalkSpec(Lattice.HALF_LINE, _parse_coin("", H_FLAG), _parse_coin("", KONNO_PI_FLAG))
        series = return_probability_series(spec, 0, _parse_qubit("", "0.6,0,0,0.8"), 40)
        assert text.splitlines() == ["n,p"] + [f"{n},{format(float(p), '.12g')}" for n, p in enumerate(series)]

    def test_step_cap(self, tmp_path, capsys, monkeypatch):
        import defectwalk.cmv

        # the kernel must refuse before it touches numpy
        monkeypatch.setattr(defectwalk.cmv, "np", None)
        code, text = run_cli(
            tmp_path, "simulate", "--lattice", "line", "--coin", H_FLAG, "--defect", H_FLAG,
            "--steps", str(defectwalk.cmv.MAX_STEPS + 1), "--qubit", "1,0,0,0",
        )
        assert code == 1 and text == ""
        assert "TooLarge" in capsys.readouterr().err

    def test_dimension_floor_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "simulate", "--lattice", "line", "--coin", H_FLAG,
                "--defect", H_FLAG, "--steps", "100", "--dimension", "32",
            )
        assert exc.value.code == 2

    def test_zero_dimension_rejected(self, tmp_path):
        # 0 is a truncation below the floor, not "use the default"
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "simulate", "--lattice", "line", "--coin", H_FLAG,
                "--defect", H_FLAG, "--steps", "3", "--dimension", "0",
            )
        assert exc.value.code == 2


class TestClassify:
    def test_hadamard_m0(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "line", "--coin", H_FLAG, "--defect", H_FLAG,
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["label"] == "M0" and doc["mass_points"] == []

    def test_konno_by_params(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "line",
            "--a", f"0,{1/S2}", "--b", f"0,{-1/S2}",
        )
        doc = json.loads(text)
        assert doc["label"] == "M4"
        assert len(doc["mass_points"]) == 4
        assert doc["p_limit"]["state_independent"] is True
        assert doc["p_limit"]["value"] == pytest.approx(0.64, abs=1e-12)

    def test_halfline_document(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "halfline",
            "--a", "0.5,0.5", "--b", "0.5,0.5", "--qubit", "1,0,0,0",
        )
        doc = json.loads(text)
        assert doc["l_label"] == "L1"
        assert len(doc["mass_points"]) == 1
        assert doc["mass_points"][0]["side"] == "GammaPlus"
        assert doc["mass_points"][0]["mu"] == pytest.approx(1 / math.sqrt(3))
        assert doc["p_cesaro"] == pytest.approx(0.4226497, abs=1e-6)
        assert doc["nonlocalized_qubit"] is not None

    def test_halfline_near_epitrochoid(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "halfline",
            "--a=-0.7496553310982618,-0.11354090570451952", "--b=0.1,0.2",
        )
        assert code == 0 and json.loads(text)["l_label"] == "L1"

    def test_line_arc_tie_gets_label(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "line",
            "--a=0.8141682608528215,0.5020567995003031",
            "--b=-0.0943046781365118,0.2537974020250196",
        )
        # zeta_+(b) sits on the 1e-12 tie; either side is a decision
        assert code == 0 and json.loads(text)["label"] in ("M2minus", "M4")

    def test_diagonal_coin_reported(self, tmp_path):
        code, text = run_cli(
            tmp_path, "classify", "--lattice", "line",
            "--coin", IDENTITY_FLAG, "--defect", H_FLAG,
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["no_localization"] is True

    @pytest.mark.parametrize("command", ["classify", "masses", "return-prob"])
    def test_halfline_zero_a_is_diagonal_coin(self, tmp_path, command):
        # a = 0 is the diagonal constant coin, given by its parameter
        code, text = run_cli(
            tmp_path, command, "--lattice", "halfline", "--a", "0,0", "--b", "0.2,0.1",
        )
        _, coin_text = run_cli(
            tmp_path, command, "--lattice", "halfline",
            "--coin", IDENTITY_FLAG, "--defect", H_FLAG,
        )
        assert code == 0 and text == coin_text
        if command == "classify":
            doc = json.loads(text)
            assert doc["no_localization"] is True and doc["mass_points"] == []

    def test_roundtrip_reparse(self, tmp_path):
        _, text = run_cli(
            tmp_path, "classify", "--lattice", "line", "--coin", H_FLAG,
            "--defect", KONNO_PI_FLAG, "--qubit", "1,0,0,0",
        )
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc


class TestReturnProb:
    def test_konno_limit(self, tmp_path):
        code, text = run_cli(
            tmp_path, "return-prob", "--lattice", "line", "--coin", H_FLAG,
            "--defect", KONNO_PI_FLAG, "--qubit", "1,0,0,0",
        )
        doc = json.loads(text)
        assert doc["p_limit"] == pytest.approx(0.64, abs=1e-12)
        assert doc["state_independent"] is True

    def test_halfline_cesaro(self, tmp_path):
        code, text = run_cli(
            tmp_path, "return-prob", "--lattice", "halfline",
            "--a", "0.5,0.5", "--b", "0.5,0.5", "--qubit", "1,0,0,0",
        )
        doc = json.loads(text)
        assert doc["n_mass_points"] == 1
        assert doc["p_cesaro"] == pytest.approx(doc["p_limit"])

    def test_line_limit_matches_classify_for_imaginary_a(self, capsys):
        # both commands print v^dag M v; line.imaginary_a_limit is its check, not its value
        rng = np.random.default_rng(25)
        for _ in range(300):
            a = complex(0.0, rng.uniform(-0.95, 0.95))
            b = complex(rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
            omega = complex(np.exp(2j * np.pi * rng.uniform()))
            qubit = ",".join(map(repr, rng.normal(size=4).tolist()))
            argv = [
                "--lattice", "line", f"--a={a.real!r},{a.imag!r}", f"--b={b.real!r},{b.imag!r}",
                f"--omega={omega.real!r},{omega.imag!r}", f"--qubit={qubit}",
            ]
            assert main(["classify", *argv]) == 0
            classified = json.loads(capsys.readouterr().out)["p_limit"]
            assert main(["return-prob", *argv]) == 0
            returned = json.loads(capsys.readouterr().out)
            assert classified["state_independent"] is returned["state_independent"] is True
            assert repr(classified["value"]) == repr(returned["p_limit"])


class TestMasses:
    def test_masses_json(self, tmp_path):
        code, text = run_cli(
            tmp_path, "masses", "--lattice", "line", "--a", f"0,{1/S2}", "--b", f"0,{-1/S2}",
        )
        doc = json.loads(text)
        assert [round(p["m"], 10) for p in doc["mass_points"]] == [0.2] * 4

    def test_near_tangent_halfline_exits_1(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "masses", "--lattice", "halfline",
            "--a=-0.5434497535063831,0.6101941756954485",
            "--b=0.4714797994509592,0.8818764640770935",
        )
        assert code == 1


# the keys of every JSON document, localized and not (diagonal constant coin,
# and a = 0 on the half line)
LOCALIZED = {"line": ["--a", "0.3,0.4", "--b=0.5,-0.2"], "halfline": ["--a", "0.5,0.5", "--b", "0.5,0.5"]}
UNLOCALIZED = [
    ("line", ["--coin", IDENTITY_FLAG, "--defect", H_FLAG]),
    ("halfline", ["--coin", IDENTITY_FLAG, "--defect", H_FLAG]),
    ("halfline", ["--a", "0,0", "--b", "0.2,0.1"]),
]
DOC_KEYS = {
    ("classify", "line"): {"label", "mass_points", "p_limit", "nonlocalized_qubit"},
    ("classify", "halfline"): {"l_label", "tangent_profile", "mass_points", "p_cesaro", "nonlocalized_qubit"},
    ("masses", "line"): {"mass_points"},
    ("masses", "halfline"): {"mass_points"},
    ("return-prob", "line"): {"label", "qubit", "p_limit", "state_independent"},
    ("return-prob", "halfline"): {"n_mass_points", "qubit", "p_cesaro", "p_limit"},
    ("classify", None): {"label", "no_localization", "reason", "mass_points"},
    ("masses", None): {"mass_points"},
    ("return-prob", None): {"p_limit", "state_independent", "no_localization"},
}
ROW_KEYS = {"line": {"z_re", "z_im", "m", "eta_re", "eta_im"}, "halfline": {"z_re", "z_im", "side", "mu"}}


class TestJsonKeys:
    @pytest.mark.parametrize("command", ["classify", "masses", "return-prob"])
    @pytest.mark.parametrize(
        "lattice, params, localized",
        [(lat, params, True) for lat, params in LOCALIZED.items()]
        + [(lat, params, False) for lat, params in UNLOCALIZED],
    )
    def test_exact_key_sets(self, tmp_path, command, lattice, params, localized):
        code, text = run_cli(tmp_path, command, "--lattice", lattice, *params)
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"schema_version", "lattice"} | DOC_KEYS[command, lattice if localized else None]
        assert doc["schema_version"] == 1 and doc["lattice"] == lattice
        rows = doc.get("mass_points")
        if rows is not None:
            assert bool(rows) == localized and all(set(row) == ROW_KEYS[lattice] for row in rows)
        if command == "classify" and lattice == "line" and localized:
            assert set(doc["p_limit"]) == {"state_independent", "value", "qubit"}


class TestIgnoredFlagsRefused:
    @pytest.mark.parametrize("flag", [["--coin", H_FLAG], ["--defect", H_FLAG], ["--omega", "0,1"]])
    def test_region_takes_no_coins_or_omega(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "region", "--lattice", "line", "--b", "0.2,0.1", "--grid", "8", *flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["classify", "masses", "return-prob", "weight"])
    def test_omega_refused_on_halfline(self, tmp_path, command):
        extra = ["--theta-grid", "8"] if command == "weight" else []
        argv = [command, "--a", "0.5,0.5", "--b", "0.5,0.5", "--omega", "0,1", *extra]
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, argv[0], "--lattice", "halfline", *argv[1:])
        assert exc.value.code == 2
        code, _ = run_cli(tmp_path, argv[0], "--lattice", "line", *argv[1:])
        assert code == 0

    def test_omega_on_the_line_is_read(self, tmp_path):
        argv = ["weight", "--lattice", "line", "--a", "0.5,0.5", "--b", "0.5,0.5", "--theta-grid", "8"]
        _, default = run_cli(tmp_path, *argv)
        _, turned = run_cli(tmp_path, *argv, "--omega", "0,1")
        assert default != turned

    @pytest.mark.parametrize("lattice", ["line", "halfline"])
    def test_omega_refused_with_coins(self, tmp_path, lattice):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "classify", "--lattice", lattice, "--coin", H_FLAG,
                "--defect", KONNO_PI_FLAG, "--omega", "0,1",
            )
        assert exc.value.code == 2


class TestRegion:
    def test_line_a_plane_for_real_b(self, tmp_path):
        code, text = run_cli(
            tmp_path, "region", "--lattice", "line", "--b", "0,0", "--grid", "16",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 256
        table = {
            (float(r["a_re"]), float(r["a_im"])): int(r["n_mass_points"]) for r in rows
        }
        # corners are outside the disk
        assert table[(min(table)[0], min(table)[0])] == -1
        # for Im b = 0 the zero-atom region is the lens between the two disks
        # of radius 1/2 centered at +-1/2; the imaginary axis lies in it
        for (re, im), n in table.items():
            if abs(complex(re, im)) >= 1.0:
                assert n == -1
            elif abs(re) < 0.05 < abs(im) and abs(im) < 0.9:
                assert n == 0
        # deep inside one disk only: two atoms; outside both: four
        assert table[(0.5625, 0.0625)] == 2
        assert table[(-0.5625, 0.0625)] == 2
        assert table[(0.0625, 0.9375)] == -1 if abs(complex(0.0625, 0.9375)) >= 1 else True

    def test_line_band_without_localization(self, tmp_path):
        code, text = run_cli(
            tmp_path, "region", "--lattice", "line", "--a", "0,0.7", "--grid", "16",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        by_height = {}
        for r in rows:
            b = complex(float(r["b_re"]), float(r["b_im"]))
            n = int(r["n_mass_points"])
            if abs(b) >= 1.0:
                assert n == -1
                continue
            if b.imag >= 0.75:
                assert n == 0
            by_height.setdefault(round(b.imag, 12), set()).add(n)
        # the count depends on Im b only: constant along every Re b sweep
        for counts in by_height.values():
            assert len(counts) == 1

    def test_halfline_l0_always_localizes(self, tmp_path):
        code, text = run_cli(
            tmp_path, "region", "--lattice", "halfline", "--a", "0.95,0", "--grid", "8",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        for r in rows:
            n = int(r["n_mass_points"])
            assert n == -1 or n >= 1

    def test_halfline_a_plane_through_zero(self, tmp_path):
        with np.errstate(all="raise"):
            code, text = run_cli(
                tmp_path, "region", "--lattice", "halfline", "--b", "0.2,0.1", "--grid", "9",
            )
        assert code == 0
        counts = {
            (float(r["a_re"]), float(r["a_im"])): int(r["n_mass_points"])
            for r in csv.DictReader(io.StringIO(text))
        }
        assert counts[(0.0, 0.0)] == 0

    def test_determinism_under_threads(self, tmp_path):
        args = ["region", "--lattice", "halfline", "--a", "0.4,0.3", "--grid", "12"]
        os.environ["QWALK_THREADS"] = "4"
        try:
            _, text1 = run_cli(tmp_path, *args)
        finally:
            del os.environ["QWALK_THREADS"]
        _, text2 = run_cli(tmp_path, *args)
        assert text1 == text2

    def test_requires_exactly_one_fixed_parameter(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "region", "--lattice", "line",
                "--a", "0.1,0", "--b", "0.1,0", "--grid", "8",
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("lattice, fixed", [("line", "--b=0.2,0.1"), ("halfline", "--a=0.4,0.3")])
    def test_rows_match_per_point_formatting(self, tmp_path, lattice, fixed):
        # --grid 9 puts a coordinate exactly at 0.0; each row is formatted
        # here point by point, as numpy scalars, in (im, re) order
        code, text = run_cli(tmp_path, "region", "--lattice", lattice, fixed, "--grid", "9")
        assert code == 0
        rows = text.splitlines()[1:]
        coords = np.array([-1.0 + (2 * i + 1) / 9 for i in range(9)])
        points = np.array([complex(re, im) for im in coords for re in coords])
        counts = [row.rsplit(",", 1)[1] for row in rows]
        expected = [
            f"{format(float(p.real), '.12g')},{format(float(p.imag), '.12g')},{c}"
            for p, c in zip(points, counts)
        ]
        assert rows == expected
        assert rows[40].startswith("0,0,")


class TestCurves:
    def test_curve_families_present(self, tmp_path):
        code, text = run_cli(tmp_path, "curves", "--a", "0.45,0.3", "--samples", "64")
        rows = list(csv.DictReader(io.StringIO(text)))
        names = {r["curve"] for r in rows}
        assert {"epicycloid", "epitrochoid", "sigma_arc", "envelope_plus",
                "envelope_minus", "limit_line_0", "limit_line_3"} <= names
        for r in rows:
            if r["curve"] == "envelope_plus":
                assert math.hypot(float(r["re"]), float(r["im"])) >= 1.0 - 1e-6

    def test_epitrochoid_samples_match_parametrization(self, tmp_path):
        _, text = run_cli(tmp_path, "curves", "--samples", "32")
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r["curve"] == "epitrochoid"]
        assert len(rows) == 32
        t = float(rows[5]["t"])
        expected = 0.5 * np.exp(1j * t) - 0.5 * np.exp(3j * t)
        assert complex(float(rows[5]["re"]), float(rows[5]["im"])) == pytest.approx(expected)


class TestWeight:
    def test_halfline_csv(self, tmp_path):
        code, text = run_cli(
            tmp_path, "weight", "--lattice", "halfline",
            "--a", "0,0.7071067811865476", "--b", "0.2,0", "--theta-grid", "64",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 64
        for r in rows:
            theta, w = float(r["theta"]), float(r["w"])
            if abs(math.sin(theta)) < 0.70710678 - 1e-3:
                assert w == 0.0
            else:
                assert w >= 0.0

    def test_line_matrix_columns(self, tmp_path):
        code, text = run_cli(
            tmp_path, "weight", "--lattice", "line",
            "--a", "0,0.7071067811865476", "--b", "0,-0.7071067811865476",
            "--theta-grid", "32",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert set(rows[0].keys()) == {
            "theta", "w11_re", "w11_im", "w12_re", "w12_im",
            "w21_re", "w21_im", "w22_re", "w22_im",
        }
        for r in rows:
            assert float(r["w11_im"]) == 0.0 or math.isnan(float(r["w11_im"]))


    @pytest.mark.parametrize("lattice", ["halfline", "line"])
    def test_zero_a_is_diagonal_coin(self, tmp_path, capsys, lattice):
        # a = 0 is the diagonal constant coin: both routes exit 1 alike
        code, text = run_cli(
            tmp_path, "weight", "--lattice", lattice, "--a", "0,0", "--b", "0.2,0.1",
            "--theta-grid", "8",
        )
        err = capsys.readouterr().err
        coin_code, _ = run_cli(
            tmp_path, "weight", "--lattice", lattice, "--coin", IDENTITY_FLAG,
            "--defect", H_FLAG, "--theta-grid", "8",
        )
        assert code == coin_code == 1 and text == ""
        assert "DiagonalCoin" in err and err == capsys.readouterr().err


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached past a size cap")


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["region", "--lattice", "line", "--b", "0.2,0", "--grid"], "MAX_GRID"),
            (["region", "--lattice", "halfline", "--a", "0.4,0.3", "--grid"], "MAX_GRID"),
            (["curves", "--a", "0.45,0.3", "--samples"], "MAX_SAMPLES"),
            (["weight", "--lattice", "halfline", "--a", "0,0.7", "--b", "0.2,0", "--theta-grid"], "MAX_THETA_GRID"),
            (["weight", "--lattice", "line", "--a", "0,0.7", "--b", "0.2,0", "--theta-grid"], "MAX_THETA_GRID"),
        ],
    )
    def test_refused_before_allocating(self, tmp_path, capsys, monkeypatch, argv, cap):
        import defectwalk.cli

        # numpy is out of reach in the CLI, so a missing cap fails at once
        monkeypatch.setattr(defectwalk.cli, "np", _NoNumpy())
        code, text = run_cli(tmp_path, *argv, str(getattr(defectwalk.cli, cap) + 1))
        assert code == 1 and text == ""
        assert "TooLarge" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["wiener", "kmcg", "brute"])
    def test_suites_pass(self, tmp_path, suite):
        code, text = run_cli(tmp_path, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in text and "PASS" in text


class TestErrorPaths:
    @pytest.mark.parametrize(
        "flag, argv", cli_digests.REFUSALS, ids=[" ".join(argv[:1] + [flag]) for flag, argv in cli_digests.REFUSALS]
    )
    def test_flag_refusals(self, flag, argv):
        code, out, err = cli_digests.run(main, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err

    def test_bad_coin_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "classify", "--lattice", "line",
                "--coin", "1,0,0,0,0,0,0.5,0", "--defect", H_FLAG,
            )
        assert exc.value.code == 2

    def test_bad_qubit_count(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                tmp_path, "simulate", "--lattice", "line", "--coin", H_FLAG,
                "--defect", H_FLAG, "--steps", "4", "--qubit", "1,0",
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--lattice", "line", "--coin", H_FLAG, "--defect", H_FLAG,
             "--steps", "4", "--qubit", "nan,0,0,0"],
            ["simulate", "--lattice", "halfline", "--coin", H_FLAG, "--defect", H_FLAG,
             "--steps", "4", "--qubit", "1,0,inf,0"],
            ["simulate", "--lattice", "line", "--coin", "nan,0,0,0,0,0,1,0", "--defect", H_FLAG,
             "--steps", "4", "--qubit", "1,0,0,0"],
            ["classify", "--lattice", "line", "--a", "nan,0", "--b", "0,0"],
        ],
    )
    def test_non_finite_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, *argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--a=1e-35,1e-35", "--b", "0.2,0"],
            ["masses", "--a", "1e-320,0", "--b", "0.2,0"],
            ["return-prob", "--a", "1e-320,0", "--b", "0.2,0"],
            ["region", "--a", "1e-320,0", "--grid", "8"],
        ],
    )
    def test_tiny_halfline_a_is_borderline(self, tmp_path, capsys, argv):
        # a 0 root of the epitrochoid cubic, and a quartic that overflows when made monic
        code, _ = run_cli(tmp_path, argv[0], "--lattice", "halfline", *argv[1:])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: BorderlineA: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_numerical_guard_exit_code(self, tmp_path):
        # a on the epitrochoid: classification is reported as borderline
        from defectwalk.halfline import epitrochoid

        a = epitrochoid(0.9)
        code = main([
            "classify", "--lattice", "halfline",
            "--a", f"{a.real},{a.imag}", "--b", "0.1,0",
        ])
        assert code == 1


def test_digest_battery_exits_cleanly():
    # every call of the byte battery exits 0, 1 or 2 and none raises
    for argv in cli_digests.battery():
        code, _, _ = cli_digests.run(main, argv)
        assert code in (0, 1, 2), (code, argv)
