import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dds.dtf import MAGIC, read_dtf, write_csv, write_dtf
from dds.errors import ConfigError, NumericalError
from dds.tensor import COMPLEX, RngStream


def test_roundtrip_real(tmp_path):
    x = RngStream(0).randn((3, 5, 2))
    p = tmp_path / "x.dtf"
    write_dtf(p, x)
    assert np.array_equal(read_dtf(p), x)


def test_roundtrip_complex(tmp_path):
    x = RngStream(1).randn((4, 4), dtype=COMPLEX)
    p = tmp_path / "x.dtf"
    write_dtf(p, x)
    back = read_dtf(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, x)


def test_header_layout(tmp_path):
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    p = tmp_path / "x.dtf"
    write_dtf(p, x)
    blob = p.read_bytes()
    assert blob[:4] == MAGIC
    assert blob[4] == 0 and blob[5] == 2
    assert int.from_bytes(blob[6:14], "little") == 2
    assert int.from_bytes(blob[14:22], "little") == 3


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.dtf"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ConfigError):
        read_dtf(p)


def test_rejects_truncated_payload(tmp_path):
    x = RngStream(2).randn((4, 4))
    p = tmp_path / "x.dtf"
    write_dtf(p, x)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ConfigError):
        read_dtf(p)


def test_rejects_unknown_dtype_code(tmp_path):
    p = tmp_path / "x.dtf"
    p.write_bytes(MAGIC + bytes([9, 1]) + (1).to_bytes(8, "little") + bytes(8))
    with pytest.raises(ConfigError):
        read_dtf(p)


def test_write_is_deterministic(tmp_path):
    x = RngStream(3).randn((8, 8), dtype=COMPLEX)
    p1, p2 = tmp_path / "a.dtf", tmp_path / "b.dtf"
    write_dtf(p1, x)
    write_dtf(p2, x)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_writes_a_numpy_float_as_its_float_repr(tmp_path):
    # np.float64 passes isinstance(v, float), and numpy 2 reprs it "np.float64(0.1)"
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], [[np.float64(0.1), 0.1, 3]])
    assert p.read_text() == "a,b,c\n0.1,0.1,3\n"


# Generated files stay at the parsing layer: a corrupted header's extents
# are only compared with the file's length, so no shape allocates memory.
FILE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])
SHAPES = st.lists(st.integers(1, 4), max_size=3).map(tuple)


@st.composite
def dtf_arrays(draw):
    shape = draw(SHAPES)
    if draw(st.booleans()):
        return draw(arrays(np.complex128, shape, elements=st.complex_numbers(
            allow_nan=False, allow_infinity=False)))
    return draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False,
                                                             allow_infinity=False)))


@FILE_SETTINGS
@given(x=dtf_arrays())
def test_dtf_roundtrip_of_any_small_array(tmp_path, x):
    p = tmp_path / "x.dtf"
    write_dtf(p, x)
    back = read_dtf(p)
    assert back.dtype == x.dtype and back.shape == x.shape
    assert back.tobytes() == x.tobytes()  # bit for bit, -0.0 and subnormals included


@st.composite
def corrupted_dtf(draw):
    """A valid file's bytes, then one corruption: (kind, bytes)."""
    x = draw(dtf_arrays())
    code = 1 if x.dtype == np.complex128 else 0
    head = MAGIC + struct.pack(f"<BB{x.ndim}Q", code, x.ndim, *x.shape)
    blob = head + x.tobytes()
    kind = draw(st.sampled_from(["truncate", "header-byte", "extents", "ndim"]))
    if kind == "truncate":
        return kind, blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "header-byte":
        i = draw(st.integers(0, len(head) - 1))
        return kind, blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
    if kind == "extents":
        extents = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=x.ndim,
                                max_size=x.ndim))
        return kind, MAGIC + struct.pack(f"<BB{x.ndim}Q", code, x.ndim, *extents) + x.tobytes()
    # any ndim byte, with unit extents around the same payload
    ndim = draw(st.integers(0, 255))
    return kind, MAGIC + struct.pack(f"<BB{ndim}Q", code, ndim, *[1] * ndim) + x.tobytes()


@FILE_SETTINGS
@given(case=corrupted_dtf())
def test_corrupted_dtf_raises_only_config_or_numerical_errors(tmp_path, case):
    # the CLI maps these two to exit 2 and 3; anything else is a traceback
    kind, blob = case
    p = tmp_path / "x.dtf"
    p.write_bytes(blob)
    try:
        read_dtf(p)
    except (ConfigError, NumericalError):
        return
    assert kind != "truncate", "a truncated file must not read"
