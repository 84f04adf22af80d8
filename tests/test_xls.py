"""Legacy .xls (BIFF8) source tests: the golden fixture
``tests/fixtures/test.xls`` (the reference's ``test.xls``, pinned by
TestParser.java's getItemCount/typing semantics) plus a handwritten
CFB+BIFF8 workbook exercising every cell record type the reader supports.

The fixture is a reconstruction of the reference file from its documented
contents; regenerate it with ``python tests/fixtures/make_fixtures.py``."""

from __future__ import annotations

import os
import struct

import pyarrow as pa
import pytest

from excelastic_ray.sources.xls import ParserError, read_xls_table

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def test_golden_xls_offset_title_row():
    """test.xls: title row at offset 5 ("Column 1..3"), exactly 2 data
    rows (getItemCount stops at the first missing row)."""
    t = read_xls_table(f"{FIXTURES}/test.xls", offset=5)
    assert t.column_names == ["Column 1", "Column 2", "Column 3"]
    d = t.to_pydict()
    assert d["Column 1"] == ["cell 6.1", "cell 7.1"]
    assert d["Column 2"] == ["cell 6.2", "cell 7.2"]
    assert d["Column 3"] == ["cell 6.3", "cell 7.3"]


def test_invalid_xls_raises_parser_error(tmp_path):
    p = tmp_path / "bad.xls"
    p.write_bytes(b"not an ole2 container at all" * 10)
    with pytest.raises(ParserError):
        read_xls_table(str(p))


def test_registry_dispatches_xls(ray_session):
    from excelastic_ray.sources import registry

    ds = registry.read(f"{FIXTURES}/test.xls", offset=5)
    assert ds.count() == 2


# ---------------------------------------------------------------------------
# handwritten workbook: every record type
# ---------------------------------------------------------------------------


def _rec(op: int, payload: bytes) -> bytes:
    return struct.pack("<HH", op, len(payload)) + payload


def _sst(strings: list[str]) -> bytes:
    body = struct.pack("<ii", len(strings), len(strings))
    for s in strings:
        body += struct.pack("<HB", len(s), 0) + s.encode("latin-1")
    return _rec(0x00FC, body)


def _build_biff8() -> bytes:
    """Workbook: XF0 (general), XF1 (date fmt 14). Sheet rows (0-based):
    row 0 titles [name, num, rk, flag, when]; rows 1-2 data; row 4
    present after a gap (must NOT import)."""
    strings = ["name", "num", "rk", "flag", "when", "alpha", "beta_7"]

    sheet = _rec(0x0809, struct.pack("<HHHH", 0x0600, 0x0010, 0, 0))
    for r in (0, 1, 2, 4):
        sheet += _rec(0x0208, struct.pack("<HHHHHHHH", r, 0, 5, 0, 0, 0, 0, 0))
    for c in range(5):  # title row from SST
        sheet += _rec(0x00FD, struct.pack("<HHHI", 0, c, 0, c))
    # row 1: label, NUMBER, RK int, BOOLERR, NUMBER with date xf
    sheet += _rec(0x00FD, struct.pack("<HHHI", 1, 0, 0, 5))
    sheet += _rec(0x0203, struct.pack("<HHH", 1, 1, 0) + struct.pack("<d", 2.0))
    sheet += _rec(0x027E, struct.pack("<HHHI", 1, 2, 0, (7 << 2) | 0x02))
    sheet += _rec(0x0205, struct.pack("<HHHBB", 1, 3, 0, 0, 0))
    sheet += _rec(
        0x0203, struct.pack("<HHH", 1, 4, 1) + struct.pack("<d", 61.0)
    )
    # row 2: label, NUMBER float, MULRK (two rk cells: float/100, int),
    # BOOLERR true, pre-61 date serial
    sheet += _rec(0x00FD, struct.pack("<HHHI", 2, 0, 0, 6))
    sheet += _rec(0x0203, struct.pack("<HHH", 2, 1, 0) + struct.pack("<d", 2.5))
    bits350 = struct.unpack("<Q", struct.pack("<d", 350.0))[0] >> 32
    rk_float100 = (bits350 & 0xFFFFFFFC) | 0x01
    sheet += _rec(
        0x00BD,
        struct.pack("<HH", 2, 2)
        + struct.pack("<HI", 0, rk_float100)
        + struct.pack("<H", 2),
    )
    sheet += _rec(0x0205, struct.pack("<HHHBB", 2, 3, 0, 1, 0))
    sheet += _rec(0x0203, struct.pack("<HHH", 2, 4, 1) + struct.pack("<d", 1.0))
    # row 4 (after the gap): data that must NOT import
    sheet += _rec(0x00FD, struct.pack("<HHHI", 4, 0, 0, 5))
    sheet += _rec(0x000A, b"")

    globals_recs = _rec(0x0809, struct.pack("<HHHH", 0x0600, 0x0005, 0, 0))
    globals_recs += _rec(0x0022, struct.pack("<H", 0))  # 1900 date system
    globals_recs += _rec(0x00E0, struct.pack("<HHH", 0, 0, 0))   # XF0: general
    globals_recs += _rec(0x00E0, struct.pack("<HHH", 0, 14, 0))  # XF1: date
    globals_recs += _sst(strings)
    bs_payload = struct.pack("<IBB", 0, 0, 0) + struct.pack("<HB", 6, 0) + b"Sheet1"
    globals_recs += _rec(0x0085, bs_payload)
    globals_recs += _rec(0x000A, b"")

    # patch BOUNDSHEET's sheet offset now that globals length is known
    sheet_pos = len(globals_recs)
    globals_recs = globals_recs.replace(
        _rec(0x0085, bs_payload),
        _rec(0x0085, struct.pack("<IBB", sheet_pos, 0, 0)
             + struct.pack("<HB", 6, 0) + b"Sheet1"),
    )
    return globals_recs + sheet


def _wrap_cfb(stream: bytes) -> bytes:
    """Minimal single-stream CFB container (stream padded to >= 4096 so
    the mini-stream path is bypassed)."""
    stream = stream + b"\x00" * (max(4096, len(stream)) - len(stream))
    if len(stream) % 512:
        stream += b"\x00" * (512 - len(stream) % 512)
    n_stream_sects = len(stream) // 512
    FREE, END, FATSECT = 0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFFD

    fat = [FATSECT, END]  # sector 0 = FAT, sector 1 = directory
    for i in range(n_stream_sects):
        fat.append(3 + i if i + 1 < n_stream_sects else END)
    fat += [FREE] * (128 - len(fat))
    fat_sect = struct.pack("<128I", *fat)

    def direntry(name: str, etype: int, start: int, size: int) -> bytes:
        raw = name.encode("utf-16-le")
        return (
            raw + b"\x00" * (64 - len(raw))
            + struct.pack("<HBB", len(raw) + 2, etype, 1)
            + struct.pack("<iii", FREE - (1 << 32), FREE - (1 << 32), 1 if etype == 5 else FREE - (1 << 32))
            + b"\x00" * 16 + b"\x00" * 4 + b"\x00" * 8 + b"\x00" * 8
            + struct.pack("<iQ", start, size)
        )

    root = direntry("Root Entry", 5, -2, 0)
    wb = direntry("Workbook", 2, 2, len(stream))
    dir_sect = (root + wb).ljust(512, b"\x00")

    header = bytearray(512)
    header[0:8] = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"
    struct.pack_into("<H", header, 24, 0x003E)  # minor
    struct.pack_into("<H", header, 26, 0x0003)  # major
    struct.pack_into("<H", header, 28, 0xFFFE)  # little-endian
    struct.pack_into("<H", header, 30, 9)       # sector shift
    struct.pack_into("<H", header, 32, 6)       # mini shift
    struct.pack_into("<I", header, 44, 1)       # num FAT sectors
    struct.pack_into("<i", header, 48, 1)       # first dir sector
    struct.pack_into("<I", header, 56, 4096)    # mini cutoff
    struct.pack_into("<i", header, 60, -2)      # first minifat
    struct.pack_into("<I", header, 64, 0)
    struct.pack_into("<i", header, 68, -2)      # first difat
    struct.pack_into("<I", header, 72, 0)
    struct.pack_into("<i", header, 76, 0)       # DIFAT[0] -> FAT at sector 0
    for k in range(1, 109):
        struct.pack_into("<I", header, 76 + 4 * k, 0xFFFFFFFF)
    return bytes(header) + fat_sect + dir_sect + stream


def test_handwritten_biff8_types(tmp_path):
    p = tmp_path / "made.xls"
    p.write_bytes(_wrap_cfb(_build_biff8()))
    t = read_xls_table(str(p), offset=1)
    assert t.column_names == ["name", "num", "rk", "flag", "when"]
    d = t.to_pydict()
    # only rows 1-2 import (row 3 missing -> stop; row 4 ignored)
    assert d["name"] == ["alpha", "beta_7"]
    assert t.schema.field("num").type == pa.float64()  # 2.0 int + 2.5
    assert d["num"] == [2.0, 2.5]
    assert d["rk"] == [7, 3.5]          # RK int; RK float div-100
    assert d["flag"] == [False, True]   # BOOLERR
    # date-formatted numerics -> ISO instants incl. the pre-61 quirk
    assert d["when"] == ["1900-03-01T00:00:00Z", "1900-01-01T00:00:00Z"]


def test_xls_corruption_fuzz():
    """Random corruptions of the golden workbook either still parse or
    raise ParserError — never any other exception type (the reference's
    ParserException contract for invalid bytes, TestParser.java:33-38)."""
    import random

    base = open(f"{FIXTURES}/test.xls", "rb").read()
    rng = random.Random(7)
    for trial in range(60):
        data = bytearray(base)
        mode = trial % 3
        if mode == 0:  # flip random bytes
            for _ in range(rng.randrange(1, 20)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif mode == 1:  # truncate
            data = data[: rng.randrange(8, len(data))]
        else:  # corrupt the header/FAT region specifically
            for _ in range(rng.randrange(1, 8)):
                data[rng.randrange(0, 1024)] = rng.randrange(256)
        try:
            read_xls_table(bytes_path(data), offset=5)
        except ParserError:
            pass  # expected failure mode
        # any other exception type fails the test


@pytest.mark.parametrize("offset,shift", [
    (30, 0xFFFF),  # sector shift: 1 << 65535 once escaped as ValueError
    (30, 10),      # sector shift outside MS-CFB's 9 / 12
    (32, 7),       # mini sector shift other than 6
])
def test_bad_cfb_shift_raises_parser_error(tmp_path, offset, shift):
    data = bytearray(open(f"{FIXTURES}/test.xls", "rb").read())
    struct.pack_into("<H", data, offset, shift)
    p = tmp_path / "bad_shift.xls"
    p.write_bytes(bytes(data))
    with pytest.raises(ParserError, match="bad CFB header"):
        read_xls_table(str(p), offset=5)


_tmpdir = None


def bytes_path(data: bytes) -> str:
    import os
    import tempfile

    global _tmpdir
    if _tmpdir is None:
        _tmpdir = tempfile.mkdtemp()
    p = os.path.join(_tmpdir, "fuzz.xls")
    with open(p, "wb") as f:
        f.write(data)
    return p
