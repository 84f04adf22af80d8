"""Legacy .xls (BIFF8) ingest — stdlib-only parser.

Mirrors the observable behavior of the reference's HSSF path
(``/root/reference/src/main/java/com/codingchili/excelastic/model/
ExcelParser.java:56-74`` dispatches ``.xls`` to POI's HSSFWorkbook;
``TestParser.java:117-140`` pins the golden fixture ``test.xls``). No
spreadsheet library ships in this environment, so the two layers are
parsed directly:

1. **CFB container** (MS-CFB): the OLE2 compound file — header, DIFAT →
   FAT, directory chain, and the mini-FAT/mini-stream for streams under
   the 4096-byte cutoff. The ``Workbook`` (or legacy ``Book``) stream
   holds the BIFF data.
2. **BIFF8 records** (MS-XLS): workbook globals (SST shared strings
   incl. CONTINUE splits with per-continuation grbit, FORMAT, XF,
   BOUNDSHEET, DATEMODE 1904 flag) and the first sheet's substream
   (ROW, NUMBER, RK, MULRK, LABELSST, LABEL, BOOLERR, FORMULA with
   cached numeric/bool results, BLANK/MULBLANK for row presence).

Cell semantics match the xlsx reader (same ``ExcelParser.java``
observable contract): title row at the 1-based ``offset``, columns
until the first empty title cell, data rows walked until the first
MISSING row; BOOLEAN → bool, STRING → DataTypes regex inference,
NUMERIC → ISO-8601 instant when date-formatted (incl. the 1900-leap
dayAdjust quirk) else int-when-whole.
"""

from __future__ import annotations

import re
import struct
from datetime import timedelta

import numpy as np
import pyarrow as pa

from excelastic_ray.sources.datatypes import parse_string
from excelastic_ray.sources.xlsx import (
    _EXCEL_EPOCH,
    _EXCEL_EPOCH_PRE61,
    _DATE_FMT_IDS,
    _DATE_FMT_RE,
    ParserError,
    _column_array,
)

_CFB_MAGIC = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"
_FREESECT = 0xFFFFFFFF
_ENDOFCHAIN = 0xFFFFFFFE


# ---------------------------------------------------------------------------
# CFB (OLE2 compound file) layer
# ---------------------------------------------------------------------------


def _cfb_stream(data: bytes, name_candidates: tuple[str, ...]) -> bytes:
    """Extract one stream by name from a CFB container."""
    if len(data) < 512 or data[:8] != _CFB_MAGIC:
        raise ParserError("not an OLE2 compound file (bad magic)")
    sect_shift = struct.unpack_from("<H", data, 30)[0]
    mini_shift = struct.unpack_from("<H", data, 32)[0]
    # MS-CFB 2.2: 512- or 4096-byte sectors, 64-byte mini sectors
    if sect_shift not in (9, 12) or mini_shift != 6:
        raise ParserError(
            f"bad CFB header: sector shift {sect_shift}, "
            f"mini sector shift {mini_shift}"
        )
    sect_size = 1 << sect_shift
    mini_size = 1 << mini_shift
    first_dir = struct.unpack_from("<i", data, 48)[0]
    mini_cutoff = struct.unpack_from("<I", data, 56)[0]
    first_minifat = struct.unpack_from("<i", data, 60)[0]
    n_minifat = struct.unpack_from("<I", data, 64)[0]
    first_difat = struct.unpack_from("<i", data, 68)[0]
    n_difat = struct.unpack_from("<I", data, 72)[0]

    def sector(i: int) -> bytes:
        off = 512 + i * sect_size
        return data[off : off + sect_size]

    # DIFAT: 109 entries in the header + chained DIFAT sectors
    difat = list(struct.unpack_from("<109i", data, 76))
    s = first_difat
    for _ in range(n_difat):
        if s in (_ENDOFCHAIN, _FREESECT) or s < 0:
            break
        raw = sector(s)
        ents = struct.unpack(f"<{sect_size // 4}i", raw)
        difat.extend(ents[:-1])
        s = ents[-1]
    fat: list[int] = []
    per = sect_size // 4
    for fs in difat:
        if fs < 0:
            continue
        fat.extend(struct.unpack(f"<{per}i", sector(fs)))

    def chain(start: int) -> list[int]:
        # A valid chain can never be longer than the FAT entry count, so
        # bound the walk by len(fat): a cyclic/corrupt chain fails after
        # at most one pass over the FAT instead of 1<<24 hops (a tiny
        # malicious upload must not pin a worker or build a GB list).
        out = []
        s = start
        while s >= 0 and s != _ENDOFCHAIN - (1 << 32) and s not in (-1, -2):
            out.append(s)
            if s >= len(fat):
                raise ParserError("FAT chain out of range")
            s = fat[s]
            if len(out) > len(fat):
                raise ParserError("cyclic FAT chain")
        return out

    def read_chain(start: int, size: int) -> bytes:
        return b"".join(sector(s) for s in chain(start))[:size]

    # directory entries (128 bytes each)
    dir_data = read_chain(first_dir, 1 << 30)
    entries = []
    for off in range(0, len(dir_data) - 127, 128):
        name_len = struct.unpack_from("<H", dir_data, off + 64)[0]
        if name_len < 2:
            continue
        name = dir_data[off : off + name_len - 2].decode("utf-16-le", "ignore")
        etype = dir_data[off + 66]
        start = struct.unpack_from("<i", dir_data, off + 116)[0]
        size = struct.unpack_from("<Q", dir_data, off + 120)[0]
        entries.append((name, etype, start, size))
    root = next((e for e in entries if e[1] == 5), None)
    target = next(
        (e for e in entries if e[0] in name_candidates and e[1] == 2), None
    )
    if target is None:
        raise ParserError(
            f"no {'/'.join(name_candidates)} stream in container "
            f"(found: {[e[0] for e in entries][:8]})"
        )
    name, _, start, size = target
    if size >= mini_cutoff:
        return read_chain(start, size)
    # mini stream: carved from the root entry's chain, mini-FAT chained
    if root is None:
        raise ParserError("mini stream without root entry")
    mini_container = read_chain(root[2], root[3])
    minifat: list[int] = []
    for fs in chain(first_minifat) if n_minifat else []:
        minifat.extend(struct.unpack(f"<{per}i", sector(fs)))
    out = []
    s = start
    hops = 0
    while s >= 0:
        out.append(mini_container[s * mini_size : (s + 1) * mini_size])
        if s >= len(minifat):
            raise ParserError("mini-FAT chain out of range")
        s = minifat[s]
        hops += 1
        if hops > len(minifat):  # a valid chain never exceeds the entry count
            raise ParserError("cyclic mini-FAT chain")
    return b"".join(out)[:size]


# ---------------------------------------------------------------------------
# BIFF8 record layer
# ---------------------------------------------------------------------------

_BOF = 0x0809
_EOF = 0x000A
_SST = 0x00FC
_CONTINUE = 0x003C
_BOUNDSHEET = 0x0085
_FORMAT = 0x041E
_XF = 0x00E0
_DATEMODE = 0x0022
_ROW = 0x0208
_NUMBER = 0x0203
_RK = 0x027E
_MULRK = 0x00BD
_LABELSST = 0x00FD
_LABEL = 0x0204
_BOOLERR = 0x0205
_FORMULA = 0x0006
_BLANK = 0x0201
_MULBLANK = 0x00BE


def _records(buf: bytes, pos: int = 0):
    """Yield (opcode, payload, record_start) from a BIFF stream."""
    n = len(buf)
    while pos + 4 <= n:
        op, length = struct.unpack_from("<HH", buf, pos)
        yield op, buf[pos + 4 : pos + 4 + length], pos
        pos += 4 + length


def _parse_sst(payload: bytes, continues: list[bytes]) -> list[str]:
    """XLUnicodeRichExtendedString array with CONTINUE splits: character
    data resuming in a CONTINUE record starts with a fresh grbit byte."""
    parts = [payload] + continues
    part_i = 0
    off = 8  # skip cstTotal, cstUnique
    n_unique = struct.unpack_from("<i", payload, 4)[0]

    def remaining() -> int:
        return len(parts[part_i]) - off

    def need(k: int) -> None:
        nonlocal part_i, off
        while remaining() == 0 and part_i + 1 < len(parts):
            part_i += 1
            off = 0

    def read(k: int) -> bytes:
        nonlocal off
        need(k)
        out = parts[part_i][off : off + k]
        off += k
        if len(out) != k:
            raise ParserError("truncated SST fixed field")
        return out

    strings: list[str] = []
    for _ in range(max(n_unique, 0)):
        need(3)
        cch = struct.unpack("<H", read(2))[0]
        grbit = read(1)[0]
        c_run = struct.unpack("<H", read(2))[0] if grbit & 0x08 else 0
        cb_ext = struct.unpack("<i", read(4))[0] if grbit & 0x04 else 0
        chars: list[str] = []
        left = cch
        high = bool(grbit & 0x01)
        while left:
            need(1)
            avail = remaining()
            if avail == 0:
                raise ParserError("truncated SST string data")
            if high:
                take = min(left, avail // 2)
                if take == 0:
                    # a lone byte can't hold a UTF-16 unit; jump records
                    part_i += 1
                    off = 0
                    high = bool(parts[part_i][0] & 0x01)
                    off = 1
                    continue
                chars.append(read(take * 2).decode("utf-16-le", "replace"))
            else:
                take = min(left, avail)
                chars.append(read(take).decode("latin-1"))
            left -= take
            if left:
                # string continues in the next CONTINUE record: fresh grbit
                part_i += 1
                off = 0
                high = bool(parts[part_i][0] & 0x01)
                off = 1
        # skip rich runs + extended data (may also span records)
        skip = 4 * c_run + max(cb_ext, 0)
        while skip:
            need(1)
            step = min(skip, remaining())
            if step == 0:
                break
            off += step
            skip -= step
        strings.append("".join(chars))
    return strings


def _decode_rk(rk: int) -> float | int:
    f_div100 = rk & 0x01
    f_int = rk & 0x02
    if f_int:
        val: float | int = rk >> 2
        if val & (1 << 29):  # sign-extend 30-bit int
            val -= 1 << 30
    else:
        val = struct.unpack("<d", struct.pack("<Q", (rk & 0xFFFFFFFC) << 32))[0]
    if f_div100:
        val = val / 100
    return val


class _Biff8Workbook:
    """Parsed workbook globals + first-sheet cell map."""

    def __init__(self, stream: bytes):
        self.strings: list[str] = []
        self.xf_fmt: list[int] = []
        self.custom_date_fmts: set[int] = set()
        self.date1904 = False
        self.sheet_offsets: list[int] = []
        self._parse_globals(stream)
        # first sheet only (ExcelParser.java:64 sheetAt(0))
        if not self.sheet_offsets:
            raise ParserError("workbook has no sheets")
        self.cells, self.present_rows = self._parse_sheet(
            stream, self.sheet_offsets[0]
        )

    def _parse_globals(self, buf: bytes) -> None:
        rec = _records(buf)
        pending_sst: tuple[bytes, list[bytes]] | None = None
        for op, payload, _pos in rec:
            if op == _SST:
                pending_sst = (payload, [])
            elif op == _CONTINUE and pending_sst is not None:
                pending_sst[1].append(payload)
            else:
                if pending_sst is not None:
                    self.strings = _parse_sst(*pending_sst)
                    pending_sst = None
                if op == _EOF:
                    break
                if op == _BOUNDSHEET:
                    self.sheet_offsets.append(
                        struct.unpack_from("<I", payload, 0)[0]
                    )
                elif op == _XF:
                    self.xf_fmt.append(struct.unpack_from("<H", payload, 2)[0])
                elif op == _FORMAT:
                    fmt_id = struct.unpack_from("<H", payload, 0)[0]
                    cch, grbit = struct.unpack_from("<HB", payload, 2)
                    raw = payload[5:]
                    code = (
                        raw[: cch * 2].decode("utf-16-le", "replace")
                        if grbit & 0x01
                        else raw[:cch].decode("latin-1")
                    )
                    if _DATE_FMT_RE.search(
                        re.sub(r'"[^"]*"|\[[^]]*\]', "", code)
                    ):
                        self.custom_date_fmts.add(fmt_id)
                elif op == _DATEMODE:
                    self.date1904 = struct.unpack_from("<H", payload, 0)[0] == 1
        if pending_sst is not None:
            self.strings = _parse_sst(*pending_sst)

    def _is_date_xf(self, xf: int) -> bool:
        if not (0 <= xf < len(self.xf_fmt)):
            return False
        fmt = self.xf_fmt[xf]
        return fmt in _DATE_FMT_IDS or fmt in self.custom_date_fmts

    def _numeric(self, num: float, xf: int):
        if self._is_date_xf(xf):
            if self.date1904:
                from datetime import datetime

                dt = datetime(1904, 1, 1) + timedelta(days=num)
            else:
                epoch = _EXCEL_EPOCH if num >= 61 else _EXCEL_EPOCH_PRE61
                dt = epoch + timedelta(days=num)
            return dt.isoformat(timespec="seconds") + "Z"
        if num == int(num):
            return int(num)
        return num

    def _parse_sheet(self, buf: bytes, pos: int):
        cells: dict[tuple[int, int], object] = {}
        present: set[int] = set()
        depth = 0
        started = False
        for op, payload, _p in _records(buf, pos):
            if op == _BOF:
                depth += 1
                started = True
                continue
            if op == _EOF:
                depth -= 1
                if depth <= 0:
                    break
                continue
            if not started:
                continue
            if op == _ROW:
                present.add(struct.unpack_from("<H", payload, 0)[0])
            elif op in (_NUMBER, _RK, _LABELSST, _BOOLERR, _FORMULA,
                        _LABEL, _BLANK):
                r, c = struct.unpack_from("<HH", payload, 0)
                present.add(r)
                if op == _NUMBER:
                    xf = struct.unpack_from("<H", payload, 4)[0]
                    num = struct.unpack_from("<d", payload, 6)[0]
                    cells[(r, c)] = self._numeric(num, xf)
                elif op == _RK:
                    xf, rk = struct.unpack_from("<HI", payload, 4)
                    cells[(r, c)] = self._numeric(float(_decode_rk(rk)), xf)
                elif op == _LABELSST:
                    isst = struct.unpack_from("<I", payload, 6)[0]
                    txt = self.strings[isst] if isst < len(self.strings) else ""
                    cells[(r, c)] = parse_string(txt) if txt.strip() else None
                elif op == _LABEL:
                    cch, grbit = struct.unpack_from("<HB", payload, 6)
                    raw = payload[9:]
                    txt = (
                        raw[: cch * 2].decode("utf-16-le", "replace")
                        if grbit & 0x01
                        else raw[:cch].decode("latin-1")
                    )
                    cells[(r, c)] = parse_string(txt) if txt.strip() else None
                elif op == _BOOLERR:
                    val, f_err = struct.unpack_from("<BB", payload, 6)
                    cells[(r, c)] = None if f_err else bool(val)
                elif op == _FORMULA:
                    xf = struct.unpack_from("<H", payload, 4)[0]
                    res = payload[6:14]
                    if res[6:8] == b"\xff\xff":
                        kind = res[0]
                        if kind == 2:  # cached bool
                            cells[(r, c)] = bool(res[2])
                        # cached string/err results: leave absent (the
                        # following STRING record is not consumed)
                    else:
                        num = struct.unpack("<d", res)[0]
                        cells[(r, c)] = self._numeric(num, xf)
                # _BLANK: presence only
            elif op == _MULRK:
                r, c0 = struct.unpack_from("<HH", payload, 0)
                present.add(r)
                n_rk = (len(payload) - 6) // 6
                for i in range(n_rk):
                    xf, rk = struct.unpack_from("<HI", payload, 4 + 6 * i)
                    cells[(r, c0 + i)] = self._numeric(float(_decode_rk(rk)), xf)
            elif op == _MULBLANK:
                present.add(struct.unpack_from("<H", payload, 0)[0])
        return cells, present


# ---------------------------------------------------------------------------
# public API (mirrors sources/xlsx.py)
# ---------------------------------------------------------------------------


def read_xls_rows(path: str, offset: int = 1) -> tuple[list[str], list[list]]:
    """→ (column_names, rows of python values). ``offset`` is the
    1-based title-row index (``ImportEvent.java:59``); BIFF rows are
    0-based, so the title lives at row ``offset - 1`` (the reference
    does ``this.offset = offset - 1``, ``ExcelParser.java:39``)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        stream = _cfb_stream(data, ("Workbook", "Book"))
        wb = _Biff8Workbook(stream)
    except (ParserError, struct.error, IndexError, OSError) as e:
        raise ParserError(f"cannot parse {path!r}: {e}") from e

    title_row = offset - 1
    names: list[str] = []
    i = 0
    while True:
        v = wb.cells.get((title_row, i))
        if v is None or str(v).strip() == "":
            break
        names.append(str(v).strip())
        i += 1
    if not names:
        raise ParserError(f"no column titles at row offset {offset}")

    rows = []
    r = title_row + 1
    while r in wb.present_rows:  # stop at first missing row (getItemCount)
        rows.append([wb.cells.get((r, ci)) for ci in range(len(names))])
        r += 1
    return names, rows


def read_xls_table(path: str, offset: int = 1) -> pa.Table:
    """Read sheet 0 of a legacy .xls → typed Arrow table."""
    names, rows = read_xls_rows(path, offset)
    cols = {
        name: _column_array([row[i] for row in rows])
        for i, name in enumerate(names)
    }
    return pa.table(cols)


def read_xls(path: str, offset: int = 1, **kwargs):
    """Ray Dataset over one .xls file (spreadsheets are single-node
    sized by nature; the Dataset wrapper feeds downstream pipelines)."""
    import ray.data as rd

    return rd.from_arrow(read_xls_table(path, offset))
