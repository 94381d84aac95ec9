"""One read rule for the binary inputs (pcap, FTLD, FTLW): no `read()` is
sized by a length the file claims. A reader reads its fixed-width header
fields, then everything left in the file in one read (`read_rest`), and
only then checks the claims against the bytes it holds.
"""

from __future__ import annotations

import mmap
import os
import stat
import sys
from typing import Callable

import numpy as np


def read_rest(fp, pad: int = 0) -> tuple[np.ndarray, int]:
    """Everything left in the binary file `fp`, in one read: a uint8 buffer
    and the count of bytes read into its start, followed by min(pad, count)
    zero bytes. A regular file is read straight into the buffer; a pipe,
    which has no size, to its end first.

    Unpadded, the buffer is a heap array. Padded, it is an anonymous
    mapping of its own, zero-filled by the system: padding never touched
    takes no memory, and the buffer goes back to the system as soon as it
    is dropped instead of leaving a hole in the heap.
    """
    st = os.fstat(fp.fileno())
    if stat.S_ISREG(st.st_mode):
        size = max(st.st_size - fp.tell(), 0)
        buf = _zeroed(size + min(pad, size)) if pad else np.empty(size, dtype=np.uint8)
        return buf, fp.readinto(memoryview(buf)[:size])
    raw = np.frombuffer(fp.read(), dtype=np.uint8)
    if not pad:
        return raw, len(raw)
    buf = _zeroed(len(raw) + min(pad, len(raw)))
    buf[:len(raw)] = raw
    return buf, len(raw)


def _zeroed(nbytes: int) -> np.ndarray:
    if not nbytes:  # an anonymous mapping cannot be empty
        return np.zeros(0, dtype=np.uint8)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)


def field_reader(fp, error: Callable[[str], Exception]) -> Callable[[int, str], bytes]:
    """`read(nbytes, what)`: the field `what` from `fp`, raising
    `error(f"truncated {what}")` when the file ends inside it. A field on
    disk is at most 64 KiB by its format; a longer one is read from bytes
    in memory, whose read(n) returns no more than they hold, with n capped
    at sys.maxsize, the most read() takes."""
    def read(nbytes: int, what: str) -> bytes:
        raw = fp.read(min(nbytes, sys.maxsize))
        if len(raw) < nbytes:
            raise error(f"truncated {what}")
        return raw
    return read
