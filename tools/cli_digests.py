"""Byte digests of a fixed, seeded battery of CLI calls.

Usage: python tools/cli_digests.py SRC

Imports ``defectwalk`` from the directory SRC (the one holding the package)
and runs every command of the battery in process.  For each command it prints
the first 16 hex digits of the sha256 of (exit code, stdout, stderr), then the
argv.  Run it on two checkouts and ``diff`` the outputs to see which command
outputs a change moves:

    python tools/cli_digests.py ../parent/src > parent.txt
    python tools/cli_digests.py src > change.txt
    diff parent.txt change.txt

The battery covers every subcommand on both lattices: raw parameters and
coins, ``--dimension`` absent, valid and too small, purely imaginary, tiny and
subnormal ``a``, and the flag refusals (exit 2).  A command that raises
instead of exiting is recorded as ``raised <type>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys

import numpy as np

H = "0.7071067811865475,0,0.7071067811865475,0,0.7071067811865475,0,-0.7071067811865475,0"
KONNO_PI = "0.7071067811865475,0,-0.7071067811865475,0,-0.7071067811865475,0,-0.7071067811865475,0"
IDENTITY = "1,0,0,0,0,0,1,0"


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _disk(rng) -> complex:
    return complex(rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform()))


def _coin(rng) -> str:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return ",".join(repr(x) for z in u.ravel().tolist() for x in (z.real, z.imag))


def _qubit(rng) -> str:
    return ",".join(map(repr, rng.normal(size=4).tolist()))


def battery() -> list[list[str]]:
    """The argv lists, in a fixed order; seeded, so every call gives the same list."""
    rng = np.random.default_rng(2024)
    calls: list[list[str]] = []
    coins = [(H, KONNO_PI), (H, H)] + [(_coin(rng), _coin(rng)) for _ in range(3)]
    for lattice in ("line", "halfline"):
        for coin, defect in coins:
            base = ["simulate", "--lattice", lattice, f"--coin={coin}", f"--defect={defect}"]
            for steps, site in ((0, 0), (1, 0), (24, 0), (30, 3)):
                need = 2 * (steps + site + 8)
                for dim in (None, need, 4 * need, need - 1):
                    extra = [] if dim is None else ["--dimension", str(dim)]
                    calls.append(base + ["--steps", str(steps), "--site", str(site),
                                         f"--qubit={_qubit(rng)}"] + extra)

    params = [_disk(rng) for _ in range(4)]
    params += [complex(0.0, rng.uniform(-0.95, 0.95)) for _ in range(4)]  # imaginary a
    params += [0j, 1e-9 + 0j, complex(1e-35, 1e-35), 1e-320 + 0j]  # a = 0, tiny, subnormal
    for command in ("classify", "masses", "return-prob"):
        for lattice in ("line", "halfline"):
            for a in params:
                argv = [command, "--lattice", lattice, f"--a={_pair(a)}", f"--b={_pair(_disk(rng))}"]
                if lattice == "line":
                    argv.append(f"--omega={_pair(complex(np.exp(1j * rng.uniform(0, 6.28))))}")
                if command != "masses":
                    argv.append(f"--qubit={_qubit(rng)}")
                calls.append(argv)
            for coin, defect in coins + [(IDENTITY, H)]:
                calls.append([command, "--lattice", lattice, f"--coin={coin}", f"--defect={defect}"])

    for lattice in ("line", "halfline"):
        for fixed in ("--a", "--b"):
            for grid in (8, 16):
                calls.append(["region", "--lattice", lattice, f"{fixed}={_pair(_disk(rng))}",
                              "--grid", str(grid)])
    calls += [["curves", "--samples", "16"], ["curves", "--samples", "64", f"--a={_pair(_disk(rng))}"]]
    for lattice in ("line", "halfline"):
        for a in [_disk(rng), _disk(rng), complex(0.0, 0.6), 1e-9 + 0j, 1e-320 + 0j]:
            calls.append(["weight", "--lattice", lattice, f"--a={_pair(a)}", f"--b={_pair(_disk(rng))}",
                          "--theta-grid", "64"])
        calls.append(["weight", "--lattice", lattice, "--coin", H, "--defect", KONNO_PI,
                      "--theta-grid", "32"])
    for suite in ("wiener", "kmcg", "brute"):
        for seed_flag in ("0", "1"):
            calls.append(["verify", "--suite", suite, "--seed", seed_flag])
    return calls + [argv for _, argv in REFUSALS]


_LINE_H = ["--lattice", "line", f"--coin={H}", f"--defect={H}"]
REFUSALS = [
    ("--a", ["classify", "--lattice", "line", "--a", "x,0", "--b", "0,0"]),
    ("--qubit", ["simulate", *_LINE_H, "--steps", "4", "--qubit", "0,0,0,0"]),
    ("--grid", ["region", "--lattice", "line", "--b", "0.2,0", "--grid", "4"]),
    ("--coin", ["classify", *_LINE_H, "--a", "0.5,0", "--b", "0,0"]),
    ("--defect", ["classify", "--lattice", "line", f"--coin={H}"]),
    ("--b", ["classify", "--lattice", "line", "--a", "0.5,0"]),
    ("--a", ["classify", "--lattice", "line", "--a", "0.8,0.8", "--b", "0,0"]),
    ("--omega", ["classify", "--lattice", "line", "--a", "0.5,0", "--b", "0,0", "--omega", "2,0"]),
    ("--coin", ["simulate", "--lattice", "line", "--steps", "4"]),
    ("--steps", ["simulate", *_LINE_H, "--steps", "-1"]),
    ("--site", ["simulate", "--lattice", "halfline", f"--coin={H}", f"--defect={H}", "--steps", "4",
                "--site", "-1"]),
    ("--b", ["region", "--lattice", "line", "--b", "0.9,0.9", "--grid", "8"]),
    ("--a", ["region", "--lattice", "line", "--a", "0,0", "--grid", "8"]),
    ("--a", ["curves", "--a", "0,0"]),
    ("--seed", ["verify", "--suite", "brute", "--seed", "-1"]),
]
"""(flag, argv) pairs: each argv trips one flag check (exit 2), which names
the flag on stderr."""


def run(main, argv: list[str]):
    """(code, stdout, stderr) of ``main(argv)``; code is an int, or
    ``raised <type>`` when the call raises instead of exiting."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def digest(code, stdout: str, stderr: str) -> str:
    return hashlib.sha256(repr((code, stdout, stderr)).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, args[0])
    from defectwalk.cli import main as cli_main

    for call in battery():
        print(digest(*run(cli_main, call)), shlex.join(call))
    return 0


if __name__ == "__main__":
    sys.exit(main())
