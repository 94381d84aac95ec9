"""The three traffic views and four header-byte categories.

Builds a small synthetic corpus, reads each capture once (`Capture.read`),
groups one of them per view (`Capture.units`), and shows what each header
category keeps from a single frame (`Capture.assemble`).
"""

import tempfile
from pathlib import Path

# bytecap before numpy: importing it sets the BLAS thread count, which
# numpy reads once, when it is first imported (see the README)
from bytecap import (
    Capture,
    HeaderCategory,
    ViewKind,
    binary_synth_classes,
    build_dataset,
    byte_distribution,
    synth_corpus,
)

import numpy as np

work = Path(tempfile.mkdtemp())
corpus = synth_corpus(work, binary_synth_classes(8), seed=1)
print("corpus:", ", ".join(f"{p.name} ({label})" for p, label in corpus))

captures = [(Capture.read(path), label) for path, label in corpus]
cap = captures[0][0]

print(f"\n{len(cap)} packets in {corpus[0][0].name}")
for view in ViewKind:
    _, rows, first = cap.units(view)  # each kept packet's unit row, each unit's first record
    sizes = sorted(np.bincount(rows).tolist(), reverse=True)
    print(f"  {view.value:<8} -> {len(first):>3} units, sizes {sizes[:6]}...")

# the first frame is IP, so it is the first packet-view unit; a sample as
# long as the frame holds every byte a category keeps of it
frame_len = int(cap.cap_len[0])
print(f"\nfirst frame has {frame_len} bytes; category slices:")
for cat in HeaderCategory:
    data, kept, _ = cap.assemble(ViewKind.PACKET, cat, frame_len)
    print(f"  {cat.value:<17} keeps {kept[0]:>4} bytes "
          f"(starts {data[0, :4].tobytes().hex()}...)")

ds = build_dataset(captures, ViewKind.SESSION, HeaderCategory.NO_HEADERS, 115,
                   "binary")
print(f"\nsession dataset: {len(ds.labels)} samples of {ds.sample_len} bytes")
print("class counts:", ds.class_counts())
print("stripped bytes per class:", byte_distribution(ds))
