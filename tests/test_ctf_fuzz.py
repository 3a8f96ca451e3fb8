"""`.ctf` files drawn by hypothesis: `read_ctf` either raises `ValueError`
or returns the field the header describes, with exactly the samples the
payload holds.  The module skips without hypothesis, which is test-only."""

import json
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

import numpy as np

from curlmat.spectral import read_ctf

COMPONENTS = {("cartesian", 0): 1, ("cartesian", 1): 3, ("cartesian", 2): 5}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
# hostile values near the valid ones, so that draws reach past the first checks
scalars = (st.sampled_from([0, 1, 2, 3, 4, -2, 4.0, 2.5, 10 ** 400, "4", True, False, None])
           | st.floats())


def mostly(valid, hostile):
    """Three draws in four from ``valid``, so that some headers pass every check."""
    return st.sampled_from((valid, valid, valid, hostile)).flatmap(lambda s: s)


grids = mostly(st.lists(st.sampled_from([2, 4, 6]), min_size=3, max_size=3),
               st.lists(scalars, min_size=3, max_size=3) | json_values)
boxes = mostly(st.lists(st.floats(min_value=0.1, max_value=10) | st.integers(1, 10),
                        min_size=3, max_size=3),
               st.lists(scalars, min_size=3, max_size=3) | json_values)
ranks = mostly(st.integers(0, 2), json_values | st.integers(-3, 3))
bases = mostly(st.sampled_from(["spherical", "cartesian"]), json_values)


def described_size(header) -> int | None:
    """Payload bytes a well-formed header asks for, or None."""
    grid, l, basis = header["grid"], header["l"], header["basis"]
    if not (isinstance(grid, list) and len(grid) == 3 and all(type(v) is int for v in grid)
            and type(l) is int and l >= 0 and all(0 < v <= 6 for v in grid)):
        return None
    ncomp = 2 * l + 1 if basis == "spherical" else COMPONENTS.get((str(basis), l))
    return ncomp and ncomp * grid[0] * grid[1] * grid[2] * 16


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "field.ctf"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=grids, box=boxes, l=ranks, basis=bases, offset=st.sampled_from([0, 0, 0, -16, 16, 1]))
@example(grid=[4, 4, 4], box=["1", True, 2.5], l=1, basis="spherical", offset=0)
@example(grid=[4, 4, 4], box=[10 ** 400, 1, 1], l=1, basis="spherical", offset=0)
def test_header_is_rejected_or_honoured(path, grid, box, l, basis, offset):
    header = {"magic": "CTF1", "l": l, "basis": basis, "grid": grid, "box": box,
              "dtype": "c128", "order": "component,z,y,x"}
    size = described_size(header)
    payload = bytes(max(0, (size or 48) + offset))
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    try:
        field = read_ctf(path)
    except ValueError:
        return
    assert size == len(payload)
    assert (field.l, field.basis, list(field.grid.n)) == (l, basis, grid)
    # True == 1.0 and the float of "1" is 1.0, so the types are checked too
    assert isinstance(box, list) and all(type(v) in (int, float) for v in box)
    assert list(field.grid.box) == box
    assert field.data.shape == (field.ncomp, grid[2], grid[1], grid[0])


# float64 samples drawn as bits: finite ones (ordinary floats or any bit
# pattern short of an all-ones exponent) and non-finite ones (inf, and NaNs
# with any sign and payload)
EXPONENT = 0x7FF << 52
finite_bits = (st.floats(allow_nan=False, allow_infinity=False).map(
                   lambda x: struct.unpack("<Q", struct.pack("<d", x))[0])
               | st.integers(0, 2 ** 64 - 1).filter(lambda b: b & EXPONENT != EXPONENT))
nonfinite_bits = st.tuples(st.booleans(), st.integers(0, 2 ** 52 - 1)).map(
    lambda sm: sm[0] << 63 | EXPONENT | sm[1])
# (l, basis) -> components, on a 2 x 2 x 2 grid
LAYOUTS = {(0, "spherical"): 1, (1, "spherical"): 3, (0, "cartesian"): 1, (1, "cartesian"): 3}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), layout=st.sampled_from(sorted(LAYOUTS)),
       cut=st.sampled_from([0, 0, 0, -16, -8, -1, 1, 8, 16]))
def test_payload_is_rejected_or_returned(path, data, layout, cut):
    l, basis = layout
    count = 2 * LAYOUTS[layout] * 8
    bits = data.draw(st.lists(finite_bits, min_size=count, max_size=count))
    for i, b in data.draw(st.lists(st.tuples(st.integers(0, count - 1), nonfinite_bits),
                                   max_size=2)):
        bits[i] = b
    payload = struct.pack(f"<{count}Q", *bits)
    # truncated, or extended by bytes that are themselves samples' bits
    payload = payload[:cut] if cut < 0 else payload + payload[:cut]
    header = {"magic": "CTF1", "l": l, "basis": basis, "grid": [2, 2, 2], "box": [1, 1, 1],
              "dtype": "c128", "order": "component,z,y,x"}
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    finite = np.isfinite(np.frombuffer(payload[:len(payload) // 8 * 8], "<f8")).all()
    try:
        field = read_ctf(path)
    except ValueError:
        assert cut != 0 or not finite
        return
    assert cut == 0 and finite
    assert field.data.shape == (LAYOUTS[layout], 2, 2, 2)
    assert field.data.astype("<c16").tobytes() == payload
