"""XLSX source parity vs the reference's golden fixtures (``test.xlsx``,
``invalid.xlsx``, ``test.csv``, asserted per TestParser.java).

The fixtures live in ``tests/fixtures/``: reconstructions of the
reference files from their documented contents, regenerated with
``python tests/fixtures/make_fixtures.py``."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from excelastic_ray.sources.xlsx import ParserError, read_xlsx_table

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def test_golden_xlsx_offset_title_row():
    """TestParser.java:117-166: title row at offset 5, 2 typed rows:
    name="test_%d", flag=(i+1)%2==0, integer=(i+1)*2, float=(i+1)*0.5."""
    t = read_xlsx_table(f"{FIXTURES}/test.xlsx", offset=5)
    assert t.column_names == ["name", "flag", "integer", "float"]
    assert t.schema.field("name").type == pa.string()
    assert t.schema.field("flag").type == pa.bool_()
    assert t.schema.field("integer").type == pa.int64()
    assert t.schema.field("float").type == pa.float64()
    d = t.to_pydict()
    assert d["name"] == ["test_0", "test_1"]
    assert d["flag"] == [False, True]
    assert d["integer"] == [2, 4]
    assert d["float"] == [0.5, 1.0]


def test_invalid_xlsx_raises_parser_error():
    """TestParser.java:33-38: invalid bytes → ParserException analog."""
    with pytest.raises(ParserError):
        read_xlsx_table(f"{FIXTURES}/invalid.xlsx")


def test_registry_dispatch():
    from excelastic_ray.sources import registry
    from excelastic_ray.sources.xls import read_xls

    assert "xlsx" in registry.registered_extensions()
    assert registry.get_by_filename("legacy.xls") is read_xls


def _write_min_xlsx(path, sheet_rows, styles_xml=None):
    """Minimal handwritten OOXML workbook: one sheet, inline numbers."""
    import zipfile

    sheet = (
        '<?xml version="1.0"?><worksheet xmlns="http://schemas.'
        'openxmlformats.org/spreadsheetml/2006/main"><sheetData>'
        + sheet_rows
        + "</sheetData></worksheet>"
    )
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("xl/worksheets/sheet1.xml", sheet)
        if styles_xml:
            z.writestr("xl/styles.xml", styles_xml)


def test_row_gap_stops_import(tmp_path):
    """getItemCount (ExcelParser.java) walks rows from offset+1 and
    stops at the first MISSING row — data after a gap never imports."""
    p = str(tmp_path / "gap.xlsx")
    _write_min_xlsx(
        p,
        '<row r="1"><c r="A1" t="str"><v>h</v></c></row>'
        '<row r="2"><c r="A2"><v>1</v></c></row>'
        '<row r="3"><c r="A3"><v>2</v></c></row>'
        # row 4 missing entirely -> stop; row 5 must not import
        '<row r="5"><c r="A5"><v>9</v></c></row>',
    )
    t = read_xlsx_table(p, offset=1)
    assert t.to_pydict()["h"] == [1, 2]


def test_date_serial_1900_leap_quirk(tmp_path):
    """POI's DateUtil dayAdjust: serials < 61 (before Excel's fake
    1900-02-29) sit one day later vs the 1899-12-30 epoch. Serial 1 →
    1900-01-01; serial 61 → 1900-03-01."""
    styles = (
        '<?xml version="1.0"?><styleSheet xmlns="http://schemas.'
        'openxmlformats.org/spreadsheetml/2006/main"><cellXfs>'
        '<xf numFmtId="14"/></cellXfs></styleSheet>'
    )
    p = str(tmp_path / "dates.xlsx")
    _write_min_xlsx(
        p,
        '<row r="1"><c r="A1" t="str"><v>d</v></c>'
        '<c r="B1" t="str"><v>e</v></c></row>'
        '<row r="2"><c r="A2" s="0"><v>1</v></c>'
        '<c r="B2" s="0"><v>61</v></c></row>',
        styles_xml=styles,
    )
    t = read_xlsx_table(p, offset=1)
    d = t.to_pydict()
    assert d["d"] == ["1900-01-01T00:00:00Z"]
    assert d["e"] == ["1900-03-01T00:00:00Z"]


def test_ndjson_ingest_types_like_csv(tmp_path):
    """NDJSON reader types the reference fixture identically to the CSV
    reader (string values through the DataTypes regexes; native JSON
    scalars narrowed)."""
    import csv
    import json

    from excelastic_ray.sources.csv import read_csv_table
    from excelastic_ray.sources.jsonl import read_jsonl_table

    rows = list(csv.DictReader(open(f"{FIXTURES}/test.csv")))
    p = str(tmp_path / "t.ndjson")
    with open(p, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    a = read_jsonl_table(p)
    b = read_csv_table(f"{FIXTURES}/test.csv")
    assert a.equals(b)

    # native JSON scalars: bool passes through, whole floats narrow
    p2 = str(tmp_path / "n.ndjson")
    with open(p2, "w") as f:
        f.write('{"x": 3.0, "y": 2.5, "ok": true}\n')
        f.write('{"x": 4.0, "y": 1.5, "ok": false}\n')
    t = read_jsonl_table(p2)
    assert t.schema.field("x").type == pa.int64()
    assert t.schema.field("y").type == pa.float64()
    assert t.schema.field("ok").type == pa.bool_()


def test_registry_dispatches_ndjson():
    from excelastic_ray.sources import registry
    from excelastic_ray.sources.jsonl import read_jsonl

    for ext in ("ndjson", "jsonl", "json"):
        assert registry.get_by_filename(f"x.{ext}") is read_jsonl
