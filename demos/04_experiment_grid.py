"""The full 3 views x 4 header categories study, desk scale.

Trains one model per grid cell on a synthetic two-class corpus and prints
an accuracy / weighted-f1 table per view and category. Each capture is
parsed once into a `Capture`, and all 12 cells are assembled from it.
"""

import tempfile
from pathlib import Path

from bytecap import (
    Capture,
    HeaderCategory,
    ViewKind,
    binary_synth_classes,
    build_dataset,
    default_config,
    evaluate,
    synth_corpus,
    train,
    train_val_split,
)

work = Path(tempfile.mkdtemp())
corpus = synth_corpus(work, binary_synth_classes(60), seed=11)
print("12 experiments on", ", ".join(p.name for p, _ in corpus))
captures = [(Capture.read(path), name) for path, name in corpus]
print()
print(f"{'view':<8} {'category':<18} {'samples':>7} {'accuracy':>9} "
      f"{'weighted f1':>12}")

for view in ViewKind:
    for cat in HeaderCategory:
        ds = build_dataset(captures, view, cat, 115, "binary")
        tr, va = train_val_split(ds, 0.2, seed=11)
        cfg = default_config("binary", epochs=10, seed=11)
        ckpt, _ = train(cfg, tr, va, early_stop=True)
        rep = evaluate(ckpt, va)
        print(f"{view.value:<8} {cat.value:<18} {len(ds.samples):>7} "
              f"{rep.accuracy:>9.4f} {rep.weighted_f1:>12.4f}")
