"""Exact rendering, byte for byte: the CLI's output against files made by the
CLI before exact coefficients became integer pairs (they were `Fraction`s).

Covered: `build` in every format for every operator at l = 1..3 (the
cartesian curl at l = 1 only), `ledger --format json`, one `cg` and
`verify --report json` at its defaults.  Layout and schema tests elsewhere do
not see a changed digit, sign or radical; these do.
"""

from pathlib import Path

import pytest

from curlmat.cli import main

GOLDEN = Path(__file__).with_name("golden")
EXTENSIONS = {"text": "txt", "json": "json", "latex": "tex"}
OPS = ("div", "grad", "curl", "curl-h", "curl-c", "cartesian-curl")


def _cases():
    for op in OPS:
        for l in (1,) if op == "cartesian-curl" else (1, 2, 3):
            for fmt, ext in EXTENSIONS.items():
                yield f"build-{op}-l{l}.{ext}", ["build", "--op", op, "--l", str(l),
                                                 "--format", fmt]
    yield "ledger.json", ["ledger", "--format", "json"]
    yield "cg.txt", ["cg", "--l1", "2", "--m1", "1", "--l2", "1", "--m2", "-1",
                     "--l", "2", "--m", "0"]
    yield "verify.json", ["verify", "--report", "json"]


CASES = dict(_cases())


@pytest.mark.parametrize("name", CASES)
def test_output_is_byte_identical(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("ascii") == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)
