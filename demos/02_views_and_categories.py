"""The three traffic views and four header-byte categories.

Builds a small synthetic corpus, groups it per view, and shows what each
header category keeps from a single frame.
"""

import tempfile
from pathlib import Path

from bytecap import (
    HeaderCategory,
    ViewKind,
    binary_synth_classes,
    build_dataset,
    byte_distribution,
    dissect,
    filter_packets,
    read_pcap,
    split_view,
    strip_headers,
    synth_corpus,
)

work = Path(tempfile.mkdtemp())
corpus = synth_corpus(work, binary_synth_classes(8), seed=1)
print("corpus:", ", ".join(f"{p.name} ({label})" for p, label in corpus))

with read_pcap(corpus[0][0]) as reader:
    pairs = [(rec, dissect(rec)) for rec in reader]

print(f"\n{len(pairs)} packets in {corpus[0][0].name}")
for view in ViewKind:
    units = split_view(filter_packets(pairs, view), view)
    sizes = sorted((len(u) for u in units.values()), reverse=True)
    print(f"  {view.value:<8} -> {len(units):>3} units, sizes {sizes[:6]}...")

rec, d = pairs[0]
print(f"\nfirst frame has {rec.cap_len} bytes; category slices:")
for cat in HeaderCategory:
    kept = strip_headers(rec.data, d, cat)
    print(f"  {cat.value:<17} keeps {len(kept):>4} bytes "
          f"(starts {kept[:4].hex()}...)")

ds = build_dataset(corpus, ViewKind.SESSION, HeaderCategory.NO_HEADERS, 115,
                   "binary")
print(f"\nsession dataset: {len(ds.labels)} samples of {ds.sample_len} bytes")
print("class counts:", ds.class_counts())
print("stripped bytes per class:", byte_distribution(ds))
