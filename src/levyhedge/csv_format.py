"""CSV files of float64 arrays, each cell the text of '%.17g', formatted in NumPy.

:func:`write_csv` formats a table in chunks of _CSV_ROWS rows.  A table of
at least twice ``sim_harness._FORK_MIN_WORK`` cells is cut into contiguous
ranges of whole chunks, one per usable CPU, through the fork loop of Monte
Carlo runs (:func:`levyhedge.sim_harness._fork_ranges`): this process
writes the first range to the file, and a forked child formats each other
range into an unnamed temporary file in the same directory, which this
process then appends in range order.  Every cell is formatted on its own,
so the bytes do not depend on the chunk size or the number of processes.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import sim_harness

# rows formatted per write: the bytes held in memory stay bounded at any --steps
_CSV_ROWS = 512

# Cells per process against sim_harness._FORK_MIN_WORK, the least work a
# forked process must get.  Measured on a 2-CPU Intel Xeon VM (Python 3.11,
# NumPy 2.4) after a 50 000-step simulate, 40 alternated writes of
# golden-path rows: one process formats 0.33-0.36 us per cell, and a second
# costs 12 ms at 36 864 cells (fork, copy-on-write faults in both
# processes, the wait and the append) and more on larger tables, whose
# halves slow each other down on the shared cores.  Two processes write
# 73 728 cells 0.97x as fast as one, 147 456 cells 1.05x, 262 152 cells,
# just above two processes' threshold, 1.09x, and 450 009 cells 1.21x.

# A finite |x| in [1e-280, 1e16) with decimal exponent e has the 17 digits
# D = round(|x| * 10^k), k = 16 - e.  The product is formed as a double-double
# (Dekker's exact two-product against a double-double 10^k, since NumPy has no
# fma) with an error below 1e-14, so D is proven unless the product's fraction
# lies within _TIE_MARGIN of one half or D has not 17 digits.  Python's
# '%.17g' formats every other element but zero: NaN, the infinities,
# subnormals, |x| >= 1e16, 17-digit ties and near-ties, and a decimal exponent
# that log10 got wrong by one.
#
# A cell is laid out in 32 bytes: '0' * 7 and the 17 digits at 7..23 (the
# line), "e-XX" or "e-XXX" at 26..30 and the separator at 31.  One rule lays
# out every cell from E = e, or E = 0 for the d.ddd of the e-XX notation
# (e < -4) and for a zero, whose D is 0: the line's bytes [7 + min(E, 0),
# 8 + E) are kept, which is the integer part or the '0' of 0.000ddd; a '.'
# goes at 8 + E when a fraction follows, and the fraction, up to the last
# nonzero digit, is taken from the line moved one byte right.  A '-' goes in
# byte 0, which the rule never keeps, and the zero bytes left between cells
# are deleted in one pass.

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
_TIE_MARGIN = 1e-9
_POWERS = 300  # 10^k for k = 16 - e in 0..299 covers e down to -283


def _byte_words(rows: list[bytes]) -> np.ndarray:
    """32-byte ``rows`` as (4, len(rows)) little-endian words."""
    return np.ascontiguousarray(np.frombuffer(b"".join(rows), "<u8").reshape(-1, 4).T, np.uint64)


def _csv_tables() -> dict[str, np.ndarray]:
    """Lookup tables of :func:`csv_rows`.

    Each is at most a few KB: a larger table, built after a run's arrays,
    would sit above them on the heap and keep it from shrinking when they
    are freed."""
    p_hi, p_hi_hi, p_lo = [], [], []
    for k in range(_POWERS):
        hi = float(10**k)
        c = _SPLIT * hi
        p_hi.append(hi)
        p_hi_hi.append(c - (c - hi))
        p_lo.append(float(10**k - int(hi)))
    # per row k: the exponent word of e = 16 - k, empty unless e < -4
    exp_word = [int.from_bytes(b"\0\0" + (b"e-%02d" % (k - 16) if k > 20 else b""), "little") for k in range(_POWERS)]
    ascii_pairs = [int.from_bytes(b"%02d" % pair, "little") for pair in range(100)]
    tables = {
        "p_hi": np.array(p_hi),
        "p_hi_hi": np.array(p_hi_hi),
        "p_hi_lo": np.array(p_hi) - np.array(p_hi_hi),
        "p_lo": np.array(p_lo),
        "exp_word": np.array(exp_word, np.uint64),
        # the digit pair p at bytes 2j, 2j + 1 of a word, j = 0..3
        "pairs": np.array([[pair << 16 * j for pair in ascii_pairs] for j in range(4)], np.uint64),
        "pair_zeros": np.array([(pair % 10 == 0) + (pair == 0) for pair in range(100)]),
        # word 0 of the line: '0' * 7 and the leading digit
        "lead": np.array([int.from_bytes(b"0" * 7 + b"%d" % i, "little") for i in range(10)], np.uint64),
        "below": _byte_words([b"\xff" * b + bytes(32 - b) for b in range(33)]),  # bytes below b
        "above": _byte_words([bytes(b) + b"\xff" * (32 - b) for b in range(33)]),  # bytes from b on
        "dot": _byte_words([bytes(b) + b"." + bytes(31 - b) for b in range(32)] + [bytes(32)]),  # '.' at b, none at 32
    }
    for table in tables.values():
        table.flags.writeable = False  # every call shares the same arrays
    return tables


_TABLES = _csv_tables()  # built on import, which the first write does


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits D of each ``a`` in [1e-280, 1e16) as an int64,
    the row k = 16 - e of its decimal exponent e in the tables, and
    whether D and e are proven."""
    t = _TABLES
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p = a * t["p_hi"][k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    h_hi = t["p_hi_hi"][k]
    h_lo = t["p_hi_lo"][k]
    p_lo = t["p_lo"][k]
    # p + lo is a * 10^k: Dekker's exact error of a * p_hi, then a times the low half of 10^k
    lo = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * p_lo
    half = lo + 0.5
    up = np.floor(half)
    d = p.astype(np.int64) + up.astype(np.int64)
    proven = (d >= 10**16) & (d < 10**17) & (np.abs(half - up - 0.5) < 0.5 - _TIE_MARGIN)
    # D = 10^16 also rounds a product just below 10^16, whose exponent is e - 1
    edge = np.flatnonzero(proven & (d == 10**16))
    if edge.size:
        above = (p[edge].astype(np.int64) - 10**16) + lo[edge]
        proven[edge] = (above >= 0) & ((above > _TIE_MARGIN) | (p_lo[edge] == 0))
    return d, k, proven


def csv_rows(block: np.ndarray) -> bytes:
    """CSV lines of the (rows, width) float64 array ``block``, each cell the
    text of ``format(x, '.17g')``."""
    t = _TABLES
    rows, width = block.shape
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax < 1e16)
    # the other elements go through 1.0, so no floating-point warning can arise
    # and their exponent is 0: a zero is laid out as D = 0 at E = 0
    d, k, proven = _digits17(np.where(fast, ax, 1.0))
    ok = fast & proven
    d = np.where(ok, d, 0)

    # D: the leading digit, then eight pairs of digits
    high = d // 10**8
    lead = high // 10**8
    pairs = []
    for part in (high - lead * 10**8, d - high * 10**8):
        part = part.astype(np.uint32)
        quad = part // 10**4
        for q in (quad, part - quad * 10**4):
            tens = q // 100
            pairs += [tens, q - tens * 100]
    trailing = t["pair_zeros"].take(pairs[-1])
    more = np.flatnonzero(pairs[-1] == 0)
    for pair in pairs[-2::-1]:
        if not more.size:
            break
        pm = pair[more]
        trailing[more] += t["pair_zeros"].take(pm)
        more = more[pm == 0]
    digits = 17 - trailing

    # the point at 8 + E; the kept line from 7 + min(E, 0) to it, the
    # fraction from the moved line's byte after it to the last digit
    point = np.where(k > 20, 8, 24 - k)
    first = np.minimum(point, 8) - 1
    frac_start, frac_end = point + 1, digits + 8
    dot_at = np.where(frac_end > frac_start, point, 32)

    p = t["pairs"]
    line = (
        t["lead"].take(lead),
        p[0].take(pairs[0]) | p[1].take(pairs[1]) | p[2].take(pairs[2]) | p[3].take(pairs[3]),
        p[0].take(pairs[4]) | p[1].take(pairs[5]) | p[2].take(pairs[6]) | p[3].take(pairs[7]),
    )
    cells = np.empty((x.size, 4), "<u8")
    prev = 0
    for w, word in enumerate(line):
        shifted = (word << 8) | (prev >> 56)  # the line moved one byte right
        kept = t["below"][w].take(point) & t["above"][w].take(first)
        moved = t["below"][w].take(frac_end) & t["above"][w].take(frac_start)
        cells[:, w] = (word & kept) | (shifted & moved) | t["dot"][w].take(dot_at)
        prev = word
    cells[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    # word 3: the line's last byte moved into it, the exponent and the separator
    sep = np.full(width, int.from_bytes(b"\0" * 7 + b",", "little"), np.uint64)
    sep[-1] = int.from_bytes(b"\0" * 7 + b"\n", "little")
    exp_sep = (t["exp_word"].take(k).reshape(rows, width) | sep).ravel()
    cells[:, 3] = ((prev >> 56) & t["below"][3].take(frac_end)) | exp_sep

    slow = np.flatnonzero(~(ok | (ax == 0.0)))
    if slow.size:
        raw = cells.view(np.uint8)
        for i, v in zip(slow.tolist(), x[slow].tolist()):
            raw[i, :31] = np.frombuffer(b"%.17g" % v + b"\0" * 31, np.uint8, 31)
    return cells.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: Sequence[str], columns: np.ndarray, blank_first: bool = False) -> None:
    """Write ``header`` and the rows of the (rows, width) float array
    ``columns`` to a new file at ``path``; ``blank_first`` leaves the last
    cell of the first row empty.

    A range whose child could not be forked, could not get its temporary
    file or did not exit with 0 is written here, in range order, so an
    error is raised as a one-process write raises it.
    """
    columns = np.asarray(columns, dtype=np.float64)

    def write(fh, start: int, stop: int) -> None:
        if blank_first and start == 0:
            line = csv_rows(columns[:1])
            fh.write(line[: line.rfind(b",") + 1] + b"\n")
            start = 1
        for first in range(start, stop, _CSV_ROWS):
            fh.write(csv_rows(columns[first : min(first + _CSV_ROWS, stop)]))

    # written as a new file: a symlink at the name is replaced, not written
    # through, and no truncate waits for the old file's pending write-back
    path.unlink(missing_ok=True)
    with open(path, "wb") as out, contextlib.ExitStack() as temps:
        out.write((",".join(header) + "\n").encode())
        ranges = sim_harness._ranges(len(columns), _CSV_ROWS, columns.size)
        files = {}
        for r in ranges[1:]:
            with contextlib.suppress(OSError):  # the range is written here
                files[r] = temps.enter_context(tempfile.TemporaryFile(dir=path.parent))

        def run(start: int, stop: int) -> None:
            fh = files.get((start, stop), out)
            write(fh, start, stop)
            fh.flush()  # a child leaves through os._exit, which flushes nothing

        done = sim_harness._fork_ranges([ranges[0], *files], run)
        for r in ranges[1:]:
            if r in done:
                _append(out, files[r])
            else:
                write(out, *r)


def _append(out, temp) -> None:
    """Append the whole file ``temp`` to ``out`` inside the kernel: its bytes
    never enter this process's memory."""
    out.flush()
    size = os.fstat(temp.fileno()).st_size
    sent = 0
    while sent < size:
        sent += os.sendfile(out.fileno(), temp.fileno(), sent, size - sent)
