"""Bounded reads of lengths that a file claims for itself.

pcap, FTLD and FTLW files all carry length fields that are read before the
bytes they describe, and `read(n)` allocates `n` bytes up front. So a false
claim must not reach `read` unchecked: a regular file's remaining size is
checked first, and a pipe, which has no size, is read in bounded chunks.
`field_reader` states the FTLD and FTLW headers' one rule on top of that:
each named field is read whole or the file is truncated at that field.
"""

from __future__ import annotations

import os
import stat
from typing import Callable

# claims up to this size are one read(); a longer one from a pipe is read
# this many bytes at a time, so a false claim is never allocated
CHUNK = 1 << 16


def read_exact(fp, nbytes: int, truncated: Callable[[int], Exception]) -> bytes:
    """Exactly `nbytes` from the binary file `fp`, or raise
    `truncated(have)`, `have` being how many of them the file holds."""
    if nbytes > CHUNK:
        st = os.fstat(fp.fileno())
        if stat.S_ISREG(st.st_mode):
            left = st.st_size - fp.tell()
            if nbytes > left:
                raise truncated(max(left, 0))
        else:
            parts, have = [], 0
            while have < nbytes:
                part = fp.read(min(CHUNK, nbytes - have))
                if not part:
                    raise truncated(have)
                parts.append(part)
                have += len(part)
            return b"".join(parts)
    raw = fp.read(nbytes)
    if len(raw) < nbytes:
        raise truncated(len(raw))
    return raw


def field_reader(fp, error: Callable[[str], Exception]) -> Callable[[int, str], bytes]:
    """`read(nbytes, what)`: read_exact of the field `what` from `fp`,
    raising `error(f"truncated {what}")` when the file ends inside it."""
    return lambda nbytes, what: read_exact(fp, nbytes, lambda _: error(f"truncated {what}"))
