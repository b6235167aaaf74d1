"""Exact CLI traces and `gen` outputs, pinned by SHA-256.

The exact lane is the ground truth, so its traces must stay byte for
byte the same across any change to the storage, the vector layer or
the solvers.  Each case generates (or writes) a system, solves it in
exact arithmetic through the CLI, and compares the SHA-256 of every
file produced with a pin.  A pin changes only together with a stated
change of the trace format or of the generated inputs.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from irmcg.cli import EXIT_BUDGET, EXIT_OK, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MATRIX_MARKET = (
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "% a small SPD system with decimal entries\n"
    "4 4 7\n"
    "1 1 4.5\n"
    "2 1 -1.25\n"
    "2 2 3.0\n"
    "3 2 0.1\n"
    "3 3 2.0\n"
    "4 1 0.5\n"
    "4 4 1.75\n"
)
MATRIX_MARKET_RHS = "vector 4\n1\n-2\n3/7\n0\n"

JACOBI = ["--method", "irm", "--generator", "jacobi-residual+increment"]
CG = (["--method", "cg"], EXIT_OK)
IRM_CG = (["--method", "irm-cg"], EXIT_OK)
# Relaxed Ritz runs: irm-cg weights the p row of its projected system by
# omega and irm does not, so their residuals part from step 2 on.
RELAXED = [(["--method", method, "--omega", "1/2", "--max-bits", "4096"], EXIT_BUDGET)
           for method in ("irm-cg", "irm")]

# name -> (gen arguments, or None for the Matrix Market file; (solve arguments, exit code)s).
# Exact Jacobi IRM on a rotated system does not terminate; its rationals
# pass 4096 bits within a few steps, and that trace is pinned too.
CASES = {
    "rotated": (
        ["--spectrum", "1x2,2x2,3x2", "--rotate", "12", "--seed", "5"],
        [CG, IRM_CG, (JACOBI + ["--max-bits", "4096"], EXIT_BUDGET), *RELAXED],
    ),
    # The benchmark's system: n = 60, twelve eigenvalues of multiplicity 5.
    "rotated-n60": (
        ["--spectrum", ",".join("%dx5" % k for k in range(1, 13)), "--rotate", "180",
         "--seed", "100", "--rhs", "random"],
        [CG],
    ),
    "chain": (
        ["--chain", "20", "--stiff", ",".join(str(1 + k % 4) for k in range(21)),
         "--rhs", "random", "--seed", "3"],
        [CG, (["--method", "irm-cg", "--no-energy"], EXIT_OK)],
    ),
    "diagonal": (
        ["--spectrum", "1x2,3/2x1,10x3i,7x2", "--rhs", "random", "--seed", "4"],
        [IRM_CG, (JACOBI, EXIT_OK)],
    ),
    "matrix-market": (None, [CG, IRM_CG]),
}

PINS = {
    "rotated/A.txt": "04e883979a20acddeb9ecd70606000f4558838f354022e1109bddf3d897c9206",
    "rotated/b.txt": "29a138e8935d3290cda0cef738859226f46419be0725d1eeaaaa53cee0bfe21c",
    "rotated/solve0.csv": "9aa186263d5f98a9a9b19182284f38580a5a806dc736c4dddb1a66be388b8807",
    "rotated/solve1.csv": "070f61aa9f567b6368981244056493db571b5a96a25299d74be3d6944c1711d4",
    "rotated/solve2.csv": "7aeebd99ddba5eb8d3006f454d43edd46b20527454949057b8886bdf8b12272f",
    "rotated/solve3.csv": "9be0e1e1e0b3199617001d071e10b59849e31fc07025a641937ce5c97cac3c31",
    "rotated/solve4.csv": "339d9ea218accfc979057f040c360853ea9a431883c057be451ebffc7be68fcf",
    "rotated-n60/A.txt": "1b9e470af8cdbe19d88cc2acd3415fdc59a1064053cf85e140d1a01026d6dba2",
    "rotated-n60/b.txt": "9f8d4b25cb15ae0367bcdc5e1b9219e23fbad61a704b59833c84b648ae61235a",
    "rotated-n60/solve0.csv": "f7f8046e27f52a53d9478c5566cfdd75a30b0a418c84f6721e5c5e8c230a4b77",
    "chain/A.txt": "5dc1de9eb7b765c722c5ec688953c1dc8b72cadf1e4ce59538381fa945c3743e",
    "chain/b.txt": "4fb983f0cf9da6528aaae2d03ba35b0633f8ad4b53db09652f7b7658492dfd5f",
    "chain/solve0.csv": "33567e3ff080c97c4305b76b86e3b679afc91f7257b10523c474fcbeaaa7db20",
    "chain/solve1.csv": "597fc8ddee0d04af96cd4d7e6ee2626c2ec00300e8f7597ce844e29424411e36",
    "diagonal/A.txt": "9734549a88e6526cb6c407645804c16617188db077dd62b0470df26a904878b2",
    "diagonal/b.txt": "00ab36a1e6dd8b5feee860ddac598bdacfd9ded3ad9f37c779aa2589ed43ea9e",
    "diagonal/solve0.csv": "215a9560adbcb9a1001a8fe1d50a41831f15abb52b5755543da4e3055134ceee",
    "diagonal/solve1.csv": "5eac9b9033eb068587caa20b13fa759c9fca8ef7eb2d54276b87eea2271d28e9",
    "matrix-market/solve0.csv": "5de25988b091559f6babd41fe20555c10ceecaf5d314c3072bdb279e49636710",
    "matrix-market/solve1.csv": "44a65a5a29e88b43dc2afe644f225eccd3e8f241414b12e0d1d6aba82b0b7707",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _system(name, tmp_path):
    """Paths of case name's matrix and right side, and the files gen wrote."""
    gen_args = CASES[name][0]
    if gen_args is None:
        a_path, b_path = tmp_path / "A.mtx", tmp_path / "b.txt"
        a_path.write_text(MATRIX_MARKET)
        b_path.write_text(MATRIX_MARKET_RHS)
        return a_path, b_path, []
    assert main(["gen", *gen_args, "-o", str(tmp_path)]) == EXIT_OK
    a_path, b_path = tmp_path / "A.txt", tmp_path / "b.txt"
    return a_path, b_path, [a_path, b_path]


def _solved(a_path, b_path, solves, prefix):
    traces = []
    for k, (args, code) in enumerate(solves):
        trace = a_path.parent / ("%s%d.csv" % (prefix, k))
        assert main(["solve", str(a_path), str(b_path), *args, "-o", str(trace)]) == code
        traces.append(trace)
    return traces


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_outputs_match_pins(name, tmp_path, capsys):
    a_path, b_path, produced = _system(name, tmp_path)
    produced += _solved(a_path, b_path, CASES[name][1], "solve")
    capsys.readouterr()
    got = {"%s/%s" % (name, p.name): _sha(p) for p in produced}
    assert got == {key: pin for key, pin in PINS.items() if key.startswith(name + "/")}


# f64 runs of every case, energy column included.  The exact lane takes
# its energy from the residual; an f64 run's recursive residual drifts
# from b - A x, so its column must stay the energy of x, bit for bit.
F64_SOLVES = [(["--arith", "f64", "--method", method, "--eps", "1e-12", "--refresh-k", "4"],
               EXIT_OK) for method in ("cg", "irm-cg")]

F64_PINS = {
    "chain/f64-0.csv": "008920285624ccf54559f6b6ef07290f54f26a402731ff77e1d1867da29c1e8d",
    "chain/f64-1.csv": "74fd1e3f7321eb8cdb5e5ff2986a7e5f42cf1ab28ada7b5f911b33f81cb1920c",
    "diagonal/f64-0.csv": "f9bea27799b42c9fa53afae0f54d5c296128335692663e2139b58da48b1286bf",
    "diagonal/f64-1.csv": "d887d59c468aec7d778155202a219471c0b24fa4b60053eaea07a67e924c68c0",
    "matrix-market/f64-0.csv": "a0f099d981f358dac3c9e86c4f8c16eba7e9c433a084d792a7989d01e2b0bb92",
    "matrix-market/f64-1.csv": "abc5b0c9ea80758312782634c948f274f83602f5a4fc513606d2159bda0d248a",
    "rotated/f64-0.csv": "20bf86d58649b6b729fb41d65ad42bc2aaf44da60ce51b98bb69fd4ab35e22c3",
    "rotated/f64-1.csv": "88420f01ed93db1a33420fff4287d3afa1c3a82d3b79388014ddc487eb72e3e6",
    "rotated-n60/f64-0.csv": "b5de415eda6565d3ccc27e21b8039377d88142aed38283f04598b5a21ba93585",
    "rotated-n60/f64-1.csv": "87a100533ebe40b5b983924629096b365fdd69ac1bd4124bb4c0f2c41414d267",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_f64_traces_match_pins(name, tmp_path, capsys):
    a_path, b_path, _ = _system(name, tmp_path)
    traces = _solved(a_path, b_path, F64_SOLVES, "f64-")
    capsys.readouterr()
    got = {"%s/%s" % (name, p.name): _sha(p) for p in traces}
    assert got == {key: pin for key, pin in F64_PINS.items() if key.startswith(name + "/")}


# The f64 lane at the benchmark's scale: a spring chain of 1000 masses,
# solved as perfbench's chain-f64 solves it, energy column included.
CHAIN_1000 = ["--chain", "1000", "--stiff", ",".join(str(1 + k % 3) for k in range(1001)),
              "--rhs", "random", "--seed", "190"]

CHAIN_1000_PINS = {
    "A.txt": "4f49bb5f0bd9c07f78e970a999e00a4aab8b415b18b5cc389127b6c69b819530",
    "b.txt": "56537b784b29daf12c70bd6e10413975e265fef6e102f51b8f0e3e07ffd2c0db",
    "f64-0.csv": "2e395d7d172d1b7d7a86cd0a7f3929c8e1f2bf375fdf16a6f349d9ae84496313",
    "f64-1.csv": "112278e9ce6b417414837e52fe171b2672b5971793decd5156be4e1d0a18a510",
}


def test_f64_chain_at_benchmark_scale_matches_pins(tmp_path, capsys):
    assert main(["gen", *CHAIN_1000, "-o", str(tmp_path)]) == EXIT_OK
    a_path, b_path = tmp_path / "A.txt", tmp_path / "b.txt"
    solves = [(["--arith", "f64", "--method", method, "--eps", "1e-8"], EXIT_OK)
              for method in ("cg", "irm-cg")]
    traces = _solved(a_path, b_path, solves, "f64-")
    capsys.readouterr()
    assert {p.name: _sha(p) for p in [a_path, b_path, *traces]} == CHAIN_1000_PINS


# The benchmark's pins are regenerated with perfbench/make_pins.py; this
# runs its pins_for for one seed and checks it against perfbench/pins.json.
# It runs in a subprocess, so perfbench's import-time settings (one BLAS
# thread, no bytecode files) stay out of this process.
PINS_SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import make_pins
print(json.dumps(make_pins.pins_for(int(sys.argv[1]), sys.argv[2])))
"""


def test_benchmark_pins_reproduce(tmp_path):
    seed = 3
    done = subprocess.run([sys.executable, "-c", PINS_SCRIPT, str(seed), str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as fh:
        pinned = json.load(fh)["seeds"][str(seed)]
    assert json.loads(done.stdout.splitlines()[-1]) == pinned
