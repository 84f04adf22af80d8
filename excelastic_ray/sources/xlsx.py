"""XLSX ingest with reference-parity semantics — stdlib-only parser.

Mirrors the observable behavior of ``/root/reference/src/main/java/com/
codingchili/excelastic/model/ExcelParser.java`` (which uses Apache POI;
no spreadsheet library ships in this environment, so the OOXML
container — a zip of XML — is parsed directly with zipfile + ElementTree):

- sheet 0 only (``ExcelParser.java:64``)
- 1-based title-row ``offset``; column names scanned from the title row
  until the FIRST EMPTY cell (``ExcelParser.java:39,161-192``) — unlike
  CSV, which synthesizes ``header_<N>``
- cell values: BOOLEAN → bool; STRING → the DataTypes regex inference
  (``DataTypes.java:31-45`` — trim, ``^[0-9]+$``→int, float pattern,
  true/false); NUMERIC → ISO-8601 instant string when the cell's number
  format is a date format, else int when the fraction is 0, else float
  (``ExcelParser.java:236-250``, ``DataTypes.java:51-57``)
- null/empty cells are null in the Arrow column (the reference drops
  the key from its JSON doc, ``ExcelParser.java:251-256``)
- unreadable container → ``ParserError`` (``ParserException.java``
  analog; the reference's whole-file validation pass maps to the parse
  itself completing before any indexing consumes a row)

Column typing: the reference emits heterogeneous per-cell JSON; Arrow
columns are typed, so a column takes the narrowest type covering all
its non-null cells (bool / int64 / float64), else string.

Legacy ``.xls`` (BIFF8) has its own stdlib reader, ``sources/xls.py``;
the registry dispatches ``.xls`` there and it shares this module's cell
semantics and column typing.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
import zipfile
from datetime import datetime, timedelta

import pyarrow as pa

from excelastic_ray.sources.datatypes import parse_string

_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_DATE_FMT_IDS = set(range(14, 23)) | set(range(45, 48))
_DATE_FMT_RE = re.compile(r"[dmyhs]", re.IGNORECASE)
_EXCEL_EPOCH = datetime(1899, 12, 30)
_EXCEL_EPOCH_PRE61 = datetime(1899, 12, 31)  # 1900-leap-bug range (serial < 61)
_COL_RE = re.compile(r"([A-Z]+)([0-9]+)")


class ParserError(ValueError):
    """Unreadable spreadsheet (ParserException.java analog)."""


def _col_index(ref: str) -> int:
    m = _COL_RE.match(ref)
    if not m:
        return -1
    n = 0
    for ch in m.group(1):
        n = n * 26 + (ord(ch) - 64)
    return n - 1


def _shared_strings(z: zipfile.ZipFile) -> list[str]:
    try:
        root = ET.fromstring(z.read("xl/sharedStrings.xml"))
    except KeyError:
        return []
    out = []
    for si in root.findall(f"{_NS}si"):
        out.append("".join(t.text or "" for t in si.iter(f"{_NS}t")))
    return out


def _date_styles(z: zipfile.ZipFile) -> set[int]:
    """Style indices (cellXfs position) whose number format is a date."""
    try:
        root = ET.fromstring(z.read("xl/styles.xml"))
    except KeyError:
        return set()
    custom_date = set()
    for nf in root.iter(f"{_NS}numFmt"):
        code = nf.get("formatCode", "")
        if _DATE_FMT_RE.search(re.sub(r'"[^"]*"|\[[^]]*\]', "", code)):
            custom_date.add(int(nf.get("numFmtId")))
    styles = set()
    xfs = root.find(f"{_NS}cellXfs")
    if xfs is not None:
        for i, xf in enumerate(xfs.findall(f"{_NS}xf")):
            fmt = int(xf.get("numFmtId", "0"))
            if fmt in _DATE_FMT_IDS or fmt in custom_date:
                styles.add(i)
    return styles


def _first_sheet(z: zipfile.ZipFile) -> bytes:
    names = sorted(
        n for n in z.namelist()
        if re.fullmatch(r"xl/worksheets/sheet\d+\.xml", n)
    )
    if not names:
        raise ParserError("workbook has no worksheets")
    return z.read(names[0])


def _cell_value(c, shared: list[str], date_styles: set[int]):
    t = c.get("t", "n")
    if t == "inlineStr":
        is_el = c.find(f"{_NS}is")
        txt = "".join(e.text or "" for e in is_el.iter(f"{_NS}t")) if is_el is not None else ""
        return parse_string(txt) if txt else None
    v = c.find(f"{_NS}v")
    if v is None or v.text is None or v.text == "":
        return None
    raw = v.text
    if t == "s":
        txt = shared[int(raw)]
        return parse_string(txt) if txt.strip() else None
    if t == "b":
        return raw == "1"
    if t == "str":
        return parse_string(raw) if raw.strip() else None
    # numeric
    num = float(raw)
    style = int(c.get("s", "-1"))
    if style in date_styles:
        # POI: serial → java.util.Date → Instant.toString (ISO-8601).
        # POI's DateUtil applies dayAdjust=-1 only for serials >= 61:
        # Excel pretends 1900-02-29 exists (serial 60), so serials below
        # 61 sit one day later relative to the 1899-12-30 epoch.
        epoch = _EXCEL_EPOCH if num >= 61 else _EXCEL_EPOCH_PRE61
        dt = epoch + timedelta(days=num)
        return dt.isoformat(timespec="seconds") + "Z"
    if num == int(num):
        return int(num)
    return num


def read_xlsx_rows(path: str, offset: int = 1) -> tuple[list[str], list[list]]:
    """→ (column_names, rows of python values). offset is the 1-based
    title-row index (``ImportEvent.java:59``)."""
    try:
        z = zipfile.ZipFile(path)
        sheet = _first_sheet(z)
        shared = _shared_strings(z)
        date_styles = _date_styles(z)
        root = ET.fromstring(sheet)
    except (zipfile.BadZipFile, ET.ParseError, KeyError, ValueError) as e:
        raise ParserError(f"cannot parse {path!r}: {e}") from e

    raw_rows: dict[int, dict[int, object]] = {}
    for row in root.iter(f"{_NS}row"):
        r = int(row.get("r"))
        cells = {}
        for c in row.findall(f"{_NS}c"):
            ci = _col_index(c.get("r", ""))
            if ci >= 0:
                cells[ci] = _cell_value(c, shared, date_styles)
        raw_rows[r] = cells

    title = raw_rows.get(offset, {})
    # columns until the first empty title cell (ExcelParser.java:176-192)
    names: list[str] = []
    i = 0
    while True:
        v = title.get(i)
        if v is None or str(v).strip() == "":
            break
        names.append(str(v).strip())
        i += 1
    if not names:
        raise ParserError(f"no column titles at row offset {offset}")

    # The reference's getItemCount walks rows from offset+1 and STOPS at
    # the first MISSING row (sheet.getRow == null, ExcelParser.java
    # getItemCount) — rows after a gap are never imported. A row element
    # that exists but has only empty cells is non-null in POI and IS
    # counted (it imports as an all-null doc, dropped keys).
    rows = []
    r = offset + 1
    while r in raw_rows:
        cells = raw_rows[r]
        rows.append([cells.get(ci) for ci in range(len(names))])
        r += 1
    return names, rows


def _column_array(values: list) -> pa.Array:
    present = [v for v in values if v is not None]
    if present and all(isinstance(v, bool) for v in present):
        return pa.array(values, type=pa.bool_())
    if present and all(isinstance(v, int) and not isinstance(v, bool) for v in present):
        return pa.array(values, type=pa.int64())
    if present and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in present
    ):
        return pa.array([float(v) if v is not None else None for v in values],
                        type=pa.float64())
    return pa.array(
        [None if v is None else str(v) for v in values], type=pa.string()
    )


def read_xlsx_table(path: str, offset: int = 1) -> pa.Table:
    """Read sheet 0 of an .xlsx → typed Arrow table."""
    names, rows = read_xlsx_rows(path, offset)
    cols = {
        name: _column_array([row[i] for row in rows])
        for i, name in enumerate(names)
    }
    return pa.table(cols)


def read_xlsx(path: str, offset: int = 1, **kwargs):
    """Ray Dataset over one .xlsx file (spreadsheets are single-node
    sized by nature; the Dataset wrapper feeds downstream pipelines)."""
    import ray.data as rd

    return rd.from_arrow(read_xlsx_table(path, offset))
