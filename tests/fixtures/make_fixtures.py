"""Write the four golden spreadsheet fixtures the ingest and HTTP tests read.

Run from the repository root (stdlib only, no engine import):

    python tests/fixtures/make_fixtures.py

It (re)writes, next to this script:

- ``test.csv``: the reference's CSV golden file, as spelled out in
  FIXTURES.md §F3 and SURVEY.md §5 (``TestParser.java:150-162``).
- ``test.xlsx``: an OOXML workbook whose title row sits at row 5 above
  two typed rows, ``name="test_%d"``, ``flag=(i+1)%2==0``,
  ``integer=(i+1)*2``, ``float=(i+1)*0.5`` (``TestParser.java:117-166``).
  Strings are shared strings, ``flag`` cells are boolean cells and the
  numbers are numeric cells; row 1 holds a note, so ``offset=5`` skips
  a non-empty row.
- ``test.xls``: a CFB (OLE2) container holding a BIFF8 ``Workbook``
  stream: a note in row 1, the title row ``Column 1..3`` at row 5,
  ``cell r.c`` labels in rows 6-7, then a missing row 8 and a row 9
  that a reader must not import (it stops at the first missing row).
  Every label is an SST string referenced by LABELSST; the stream is
  padded to 4096 bytes, as Excel and POI pad it, so it lives in regular
  sectors rather than the mini stream.
- ``invalid.xlsx``: the first half of ``test.xlsx``, a zip without its
  central directory (``TestParser.java:33-38``: invalid bytes must give
  a parser error).

The output is byte-for-byte reproducible: zip members carry a fixed
timestamp and are stored uncompressed (deflate output may differ
between zlib builds), and no other field depends on the host or clock.
These are reconstructions from the documented contents, not the
Excel/POI-written originals of the reference checkout.
"""

from __future__ import annotations

import io
import os
import struct
import zipfile
from xml.sax.saxutils import escape

HERE = os.path.dirname(os.path.abspath(__file__))

TITLE_ROW = 5  # 1-based, as the tests' ``offset=5``
NOTE = "golden fixture: the title row is row 5"

# ---------------------------------------------------------------------------
# test.csv
# ---------------------------------------------------------------------------

CSV = "name,flag,integer,float\ntest_0,false,2,0.5\ntest_1,true,4,1.0\n"

# ---------------------------------------------------------------------------
# test.xlsx / invalid.xlsx
# ---------------------------------------------------------------------------

_XML = '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
_MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_PKG_REL = "http://schemas.openxmlformats.org/package/2006/relationships"
_CT = "application/vnd.openxmlformats-officedocument.spreadsheetml"


def _xlsx_members() -> list[tuple[str, str]]:
    # (1-based row, [cells]); a str is a shared string, a bool a boolean
    # cell, a number a numeric cell
    rows: list[tuple[int, list]] = [
        (1, [NOTE]),
        (TITLE_ROW, ["name", "flag", "integer", "float"]),
    ]
    rows += [
        (TITLE_ROW + 1 + i, [f"test_{i}", (i + 1) % 2 == 0, (i + 1) * 2, (i + 1) * 0.5])
        for i in range(2)
    ]
    strings = [v for _, cells in rows for v in cells if isinstance(v, str)]

    def cell(ref: str, v) -> str:
        if isinstance(v, str):
            return f'<c r="{ref}" t="s"><v>{strings.index(v)}</v></c>'
        if isinstance(v, bool):
            return f'<c r="{ref}" t="b"><v>{int(v)}</v></c>'
        return f'<c r="{ref}"><v>{v:g}</v></c>'

    sheet_rows = "".join(
        f'<row r="{r}">'
        + "".join(cell(f"{'ABCD'[ci]}{r}", v) for ci, v in enumerate(cells))
        + "</row>"
        for r, cells in rows
    )
    sst = (
        f'{_XML}<sst xmlns="{_MAIN}" count="{len(strings)}" uniqueCount="{len(strings)}">'
        + "".join(f"<si><t>{escape(t)}</t></si>" for t in strings)
        + "</sst>"
    )
    return [
        ("[Content_Types].xml",
         f'{_XML}<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
         '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
         '<Default Extension="xml" ContentType="application/xml"/>'
         f'<Override PartName="/xl/workbook.xml" ContentType="{_CT}.sheet.main+xml"/>'
         f'<Override PartName="/xl/worksheets/sheet1.xml" ContentType="{_CT}.worksheet+xml"/>'
         f'<Override PartName="/xl/styles.xml" ContentType="{_CT}.styles+xml"/>'
         f'<Override PartName="/xl/sharedStrings.xml" ContentType="{_CT}.sharedStrings+xml"/>'
         "</Types>"),
        ("_rels/.rels",
         f'{_XML}<Relationships xmlns="{_PKG_REL}">'
         f'<Relationship Id="rId1" Type="{_REL}/officeDocument" Target="xl/workbook.xml"/>'
         "</Relationships>"),
        ("xl/workbook.xml",
         f'{_XML}<workbook xmlns="{_MAIN}" xmlns:r="{_REL}"><sheets>'
         '<sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets></workbook>'),
        ("xl/_rels/workbook.xml.rels",
         f'{_XML}<Relationships xmlns="{_PKG_REL}">'
         f'<Relationship Id="rId1" Type="{_REL}/worksheet" Target="worksheets/sheet1.xml"/>'
         f'<Relationship Id="rId2" Type="{_REL}/styles" Target="styles.xml"/>'
         f'<Relationship Id="rId3" Type="{_REL}/sharedStrings" Target="sharedStrings.xml"/>'
         "</Relationships>"),
        ("xl/worksheets/sheet1.xml",
         f'{_XML}<worksheet xmlns="{_MAIN}"><sheetData>{sheet_rows}</sheetData></worksheet>'),
        ("xl/styles.xml",
         f'{_XML}<styleSheet xmlns="{_MAIN}">'
         '<fonts count="1"><font><sz val="11"/><name val="Calibri"/></font></fonts>'
         '<fills count="1"><fill><patternFill patternType="none"/></fill></fills>'
         '<borders count="1"><border/></borders>'
         '<cellXfs count="1"><xf numFmtId="0" fontId="0" fillId="0" borderId="0"/></cellXfs>'
         "</styleSheet>"),
        ("xl/sharedStrings.xml", sst),
    ]


def _xlsx_bytes() -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, text in _xlsx_members():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.create_system = 0
            info.external_attr = 0
            z.writestr(info, text.encode("utf-8"))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# test.xls: BIFF8 records in a CFB container
# ---------------------------------------------------------------------------


def _rec(op: int, payload: bytes) -> bytes:
    return struct.pack("<HH", op, len(payload)) + payload


def _biff8_stream() -> bytes:
    # (0-based row, [labels]) — a note, the title row, two data rows,
    # a missing row, then a row that must not import
    rows = [(0, [NOTE]), (TITLE_ROW - 1, [f"Column {c}" for c in (1, 2, 3)])]
    rows += [(r - 1, [f"cell {r}.{c}" for c in (1, 2, 3)]) for r in (6, 7, 9)]
    strings = [t for _, labels in rows for t in labels]

    sheet = _rec(0x0809, struct.pack("<HHHH", 0x0600, 0x0010, 0, 0))  # BOF
    last = rows[-1][0]
    sheet += _rec(0x0200, struct.pack("<IIHHH", 0, last + 1, 0, 3, 0))  # DIMENSIONS
    for r, labels in rows:
        # ROW: columns [0, n), default height, no row XF
        sheet += _rec(0x0208, struct.pack("<HHHHHHI", r, 0, len(labels), 0x00FF, 0, 0, 0x0100))
    for r, labels in rows:
        for c, text in enumerate(labels):
            sheet += _rec(0x00FD, struct.pack("<HHHI", r, c, 1, strings.index(text)))  # LABELSST
    sheet += _rec(0x000A, b"")  # EOF

    sst = struct.pack("<II", len(strings), len(strings))
    for t in strings:
        sst += struct.pack("<HB", len(t), 0) + t.encode("latin-1")

    def globals_(sheet_pos: int) -> bytes:
        g = _rec(0x0809, struct.pack("<HHHH", 0x0600, 0x0005, 0, 0))  # BOF
        g += _rec(0x0022, struct.pack("<H", 0))  # DATEMODE: 1900
        # XF 0: the Normal style; XF 1: the cell XF, number format General
        for flags in (0xFFF5, 0x0001):
            g += _rec(0x00E0, struct.pack("<HHHBBBBIIH", 0, 0, flags, 0x20, 0, 0, 0, 0, 0, 0x20C0))
        # BOUNDSHEET: worksheet "Sheet1" at sheet_pos
        g += _rec(0x0085, struct.pack("<IBBBB", sheet_pos, 0, 0, 6, 0) + b"Sheet1")
        g += _rec(0x00FC, sst)  # SST
        g += _rec(0x000A, b"")  # EOF
        return g

    sheet_pos = len(globals_(0))
    stream = globals_(sheet_pos) + sheet
    return stream.ljust(max(4096, -(-len(stream) // 512) * 512), b"\x00")


_FREESECT = _NOSTREAM = 0xFFFFFFFF
_ENDOFCHAIN = 0xFFFFFFFE
_FATSECT = 0xFFFFFFFD


def _direntry(name: str, etype: int, child: int, start: int, size: int) -> bytes:
    raw = (name.encode("utf-16-le") + b"\x00\x00") if name else b""
    return (
        raw.ljust(64, b"\x00")
        + struct.pack("<HBB", len(raw), etype, 1 if name else 0)  # colour: black
        + struct.pack("<III", _NOSTREAM, _NOSTREAM, child)
        + b"\x00" * 16 + b"\x00" * 4 + b"\x00" * 16  # CLSID, state, times
        + struct.pack("<IQ", start, size)
    )


def _cfb(stream: bytes) -> bytes:
    """Version-3 CFB: sector 0 = FAT, sector 1 = directory, sectors
    2.. = the Workbook stream (>= the 4096-byte mini-stream cutoff)."""
    n = len(stream) // 512
    assert len(stream) % 512 == 0 and 4096 <= len(stream) and n <= 126
    fat = [_FATSECT, _ENDOFCHAIN] + [3 + i for i in range(n - 1)] + [_ENDOFCHAIN]
    fat += [_FREESECT] * (128 - len(fat))
    directory = (
        _direntry("Root Entry", 5, 1, _ENDOFCHAIN, 0)
        + _direntry("Workbook", 2, _NOSTREAM, 2, len(stream))
        + _direntry("", 0, _NOSTREAM, 0, 0) * 2
    )
    header = (
        b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 16
        + struct.pack("<HHHHH", 0x003E, 0x0003, 0xFFFE, 9, 6)
        + b"\x00" * 6
        # dir sectors, FAT sectors, first dir sector, transaction, mini
        # cutoff, first mini-FAT sector, mini-FAT sectors, first DIFAT
        # sector, DIFAT sectors
        + struct.pack("<9I", 0, 1, 1, 0, 4096, _ENDOFCHAIN, 0, _ENDOFCHAIN, 0)
        + struct.pack("<109I", 0, *[_FREESECT] * 108)
    )
    return header + struct.pack("<128I", *fat) + directory + stream


def main() -> None:
    xlsx = _xlsx_bytes()
    outputs = {
        "test.csv": CSV.encode("ascii"),
        "test.xlsx": xlsx,
        "test.xls": _cfb(_biff8_stream()),
        "invalid.xlsx": xlsx[: len(xlsx) // 2],
    }
    for name, data in outputs.items():
        with open(os.path.join(HERE, name), "wb") as f:
            f.write(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
