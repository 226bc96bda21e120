"""Hypothesis strategies for files near the FLTIMG, FTKMDL and config
formats, shared by the parser fuzzers and the CLI exit-code tests.

Each strategy mixes arbitrary bytes, a valid header followed by arbitrary
bytes, and well-formed files that are then corrupted: values that are NaN,
infinite or negative, headers that claim other sizes (more data than the
file holds among them), cuts and trailing bytes.
"""

import numpy as np
from hypothesis import strategies as st

from flattrack.config import SCHEMA
from flattrack.regressor import ARCH
from oracles import fltimg_bytes

# Any float32: NaN, both infinities, negatives and subnormals included.
F32 = st.floats(width=32)
# A size a header may claim: small, at the format's limits, or far beyond.
CLAIM = st.integers(-2, 12) | st.sampled_from(
    [1023, 1024, 1025, 8192, 65535, 65536, 65537, 1 << 26, 1 << 31, 1 << 64])


@st.composite
def _values(draw, shape) -> np.ndarray:
    """Zeros of ``shape`` with up to four drawn float32 values in place."""
    a = np.zeros(shape, dtype="<f4")
    flat = a.reshape(-1)
    for i, v in draw(st.dictionaries(st.integers(0, flat.size - 1), F32,
                                     max_size=4)).items():
        flat[i] = v
    return a


@st.composite
def _corrupt(draw, data: bytes, fault: str, header_end: int) -> bytes:
    """``data`` with ``fault`` applied if it is one of these: "cut" short,
    "extend"ed by a few bytes, or one payload value (after ``header_end``)
    made NaN or infinite ("poison"). The caller applies the others."""
    if fault == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    if fault == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if fault == "poison" and len(data) >= header_end + 4:
        i = header_end + 4 * draw(st.integers(0, (len(data) - header_end) // 4 - 1))
        bad = np.array(draw(st.sampled_from([np.nan, np.inf, -np.inf])), dtype="<f4")
        return data[:i] + bad.tobytes() + data[i + 4:]
    return data


_FAULTS = ["none", "cut", "extend", "poison"]


def _header(magic: bytes, *values: int) -> bytes:
    return b" ".join([magic] + [b"%d" % v for v in values]) + b"\n"


@st.composite
def _fltimg_files(draw) -> bytes:
    image = draw(_values((draw(st.integers(1, 8)), draw(st.integers(1, 8)))))
    fault = draw(st.sampled_from(_FAULTS + ["header"]))
    if fault == "header":  # another format, version or size claimed
        magic = draw(st.sampled_from([b"FLTIMG1", b"FLTIMG2", b"FLTIMG", b"FTKMDL1"]))
        return _header(magic, *draw(st.lists(CLAIM, max_size=3))) + image.tobytes()
    data = fltimg_bytes(image)
    return draw(_corrupt(data, fault, data.index(b"\n") + 1))


@st.composite
def _ftkmdl_files(draw) -> bytes:
    fault = draw(st.sampled_from(_FAULTS + ["magic", "n_layers", "dims",
                                            "unchained", "ends"]))
    # The regressor's own layer sizes, or small ones that do not end at ARCH.
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)
                ) if fault == "ends" else list(ARCH)
    shapes = list(zip(dims[:-1], dims[1:]))
    if fault == "unchained":
        k = draw(st.integers(1, len(shapes) - 1))
        shapes[k] = (draw(st.integers(1, 6)), shapes[k][1])
    magic = draw(st.sampled_from([b"FTKMDL2", b"FTKMDL", b"FLTIMG1"])
                 ) if fault == "magic" else b"FTKMDL1"
    n_layers = draw(CLAIM) if fault == "n_layers" else len(shapes)
    claimed = draw(st.integers(0, len(shapes) - 1)) if fault == "dims" else None
    data = _header(magic, n_layers)
    for k, (rows, cols) in enumerate(shapes):
        claim = (draw(CLAIM), draw(CLAIM)) if k == claimed else (rows, cols)
        data += (b"%d %d\n" % claim + draw(_values((rows, cols))).tobytes()
                 + draw(_values((cols,))).tobytes())
    # Poison lands in the first layer's weights or beyond.
    first = data.index(b"\n", data.index(b"\n") + 1) + 1
    return draw(_corrupt(data, fault, first))


def _after_header(magic: bytes, count: int):
    """A valid ``magic`` header of ``count`` small integers, then any bytes."""
    return st.builds(lambda dims, rest: _header(magic, *dims) + rest,
                     st.lists(st.integers(1, 8), min_size=count, max_size=count),
                     st.binary(max_size=300))


FLTIMG = st.one_of(st.binary(max_size=100), _after_header(b"FLTIMG1", 2),
                   _fltimg_files())
FTKMDL = st.one_of(st.binary(max_size=100), _after_header(b"FTKMDL1", 1),
                   _ftkmdl_files())

_CONFIG_LINES = st.lists(st.tuples(
    st.sampled_from(sorted(SCHEMA)) | st.text(max_size=12),
    st.sampled_from([" = ", "=", " ", " == ", ""]),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1e-999", "true", "off",
                     "0x10", "1_000", "", "-1", "1.5"])
    | st.integers().map(str) | st.floats().map(repr) | st.text(max_size=12),
    st.sampled_from(["", " # comment", "#"]),
).map("".join), max_size=8)
CONFIG = st.one_of(
    st.binary(max_size=200),
    st.tuples(_CONFIG_LINES, st.sampled_from(["\n", "\r\n", "\r"]),
              st.sampled_from([b"", b"\n", b"\x00", b"\xff"])).map(
        lambda t: t[1].join(t[0]).encode("utf-8") + t[2]))
