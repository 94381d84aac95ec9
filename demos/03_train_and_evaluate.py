"""Training the 1D-CNN on byte vectors and running inference.

End-to-end: synthetic corpus -> session dataset -> train/validation split
-> training with best-epoch retention -> metrics -> weights file ->
per-sample prediction.
"""

import tempfile
from pathlib import Path

from bytecap import (
    HeaderCategory,
    ViewKind,
    binary_synth_classes,
    build_dataset,
    default_config,
    evaluate,
    load_weights,
    predict,
    save_weights,
    synth_corpus,
    train,
    train_val_split,
)

work = Path(tempfile.mkdtemp())
corpus = synth_corpus(work, binary_synth_classes(40), seed=7)
ds = build_dataset(corpus, ViewKind.SESSION, HeaderCategory.ALL_HEADERS, 115,
                   "binary")
train_ds, val_ds = train_val_split(ds, 0.2, seed=7)
print(f"{len(train_ds.labels)} training / {len(val_ds.labels)} validation samples")

config = default_config("binary", profile="prose", pairing="paper",
                        epochs=12, seed=7)
print("layer output shapes:", config.output_shapes())

ckpt, history = train(config, train_ds, val_ds, early_stop=True)
print()
print(history.to_text_table())
print(f"\nkept weights from epoch {ckpt.best_epoch} "
      f"(validation accuracy {ckpt.best_val_accuracy:.4f})")

report = evaluate(ckpt, val_ds)
print()
print(report.to_text_table())
print()
print(report.confusion_table())

weights = work / "model.ftlw"
save_weights(weights, ckpt)
back = load_weights(weights)
cls, probs = predict(back, val_ds.data[0].tobytes())
print(f"\nweights file: {weights} ({weights.stat().st_size} bytes)")
print(f"one sample: true={ds.class_names[val_ds.labels[0]]} "
      f"predicted={ds.class_names[cls]} probabilities={probs.round(4)}")
