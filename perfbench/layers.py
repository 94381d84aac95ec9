"""Per-layer numbers for the traced run.

`probe` times the public functions of each module on the workload's own
corpus, with one span around each whole per-file or per-batch loop:
pcap (read, dissect), views (grouping, assembly, one build_dataset call per
grid cell, FTLD write/read, tensors), nn (each layer op, forward, backward,
loss, Adam, model build), train (a one-epoch train, evaluate, predict) and
bench (stat features). `layer_metrics` turns those spans into the per-layer
metrics; `module_shares` splits the traced operation's wall time by module.
"""

from __future__ import annotations

import numpy as np

from bytecap import (
    Checkpoint,
    DatasetFile,
    HeaderCategory,
    Model,
    ViewKind,
    adam_init,
    adam_step,
    assemble_sample,
    build_dataset,
    conv1d_forward,
    dense_forward,
    dissect,
    evaluate,
    extract_stat_features,
    filter_packets,
    global_avg_pool_forward,
    loss_and_grad,
    maxpool1d_forward,
    predict,
    read_dataset,
    read_pcap,
    split_view,
    train,
    train_val_split,
    write_dataset,
)

from spans import SpanTable, duration
from workloads import (
    EVAL_BATCH,
    SAMPLE_LEN,
    TASK,
    evaluate_counts,
    model_config,
    train_counts,
)

VIEWS = [v.value for v in ViewKind]
CATEGORIES = [c.value for c in HeaderCategory]
NN_OPS = ("conv1", "pool", "conv2", "gap", "dense")
NN_BATCHES = {20: 200, 256: 30}  # batch size -> timed calls
MODULES = ("pcap", "views", "nn", "train", "bench", "other")
TRAIN_PROBE_SAMPLES = 4000
EVAL_PROBE_SAMPLES = 8000
FEATURE_PROBE_UNITS = 200


def _loop(tracer, name, fn, calls):
    fn()  # first call outside the span: lazy set-up is not per-call cost
    with tracer.span(name, calls=calls):
        for _ in range(calls):
            fn()


def _every(ds: DatasetFile, limit: int) -> DatasetFile:
    """Up to `limit` samples spread over the whole dataset (both classes)."""
    step = max(1, -(-len(ds.samples) // limit))
    return DatasetFile(ds.view, ds.category, ds.sample_len, ds.class_names,
                       ds.samples[::step][:limit])


def probe_pcap_views(tracer, corpus):
    """One parse, then every view grouping and every category assembly."""
    feature_units = []
    for path, _ in corpus.inputs:
        with tracer.span("pcap.read") as c:
            with read_pcap(path) as reader:
                meta = reader.meta
                records = list(reader)
            c.update(packets=len(records), bytes=sum(r.cap_len for r in records))
        with tracer.span("pcap.dissect", packets=len(records)):
            dissections = [dissect(r, meta.link_type) for r in records]
        pairs = list(zip(records, dissections))
        for view in ViewKind:
            with tracer.span(f"views.group.{view.value}", packets=len(pairs)) as c:
                units = split_view(filter_packets(pairs, view), view)
                c["units"] = len(units)
            for cat in HeaderCategory:
                with tracer.span(f"views.assemble.{view.value}.{cat.value}",
                                 samples=len(units)) as c:
                    out = [assemble_sample(u, cat, SAMPLE_LEN) for u in units.values()]
                totals = [total for _, total in out]
                c.update(produced=sum(totals),
                         kept=sum(min(t, SAMPLE_LEN) for t in totals))
            if view is ViewKind.SESSION:
                room = FEATURE_PROBE_UNITS - len(feature_units)
                feature_units += [(u, meta.ts_scale) for u in list(units.values())[:room]]
    for unit, scale in feature_units:
        with tracer.span("bench.features", units=1, packets=len(unit)):
            extract_stat_features(unit, scale)


def probe_cells(tracer, corpus, work):
    """One build_dataset call per grid cell, each written, read and loaded."""
    packet_all = None
    for view in ViewKind:
        for cat in HeaderCategory:
            cell = f"{view.value}_{cat.value}"
            with tracer.span(f"views.cell.{cell}", packets=corpus.total_packets):
                ds = build_dataset(corpus.inputs, view, cat, SAMPLE_LEN, TASK)
            path = work / f"{cell}.ftld"
            with tracer.span("views.ftld_write", samples=len(ds.samples)):
                write_dataset(path, ds)
            with tracer.span("views.ftld_read", samples=len(ds.samples)):
                back = read_dataset(path)
            with tracer.span("views.tensors", samples=len(back.samples)):
                back.tensors()
            path.unlink()
            if cell == "packet_all_headers":
                packet_all = ds
    return packet_all


def probe_nn(tracer, seed):
    cfg = model_config(seed, 1)
    model = Model(cfg)
    (w1, b1), _, (w2, b2), _, (wd, bd) = model.params
    c1, c2 = cfg.layers[0], cfg.layers[2]
    pool = cfg.layers[1]
    rng = np.random.default_rng(seed)
    for batch, calls in NN_BATCHES.items():
        x = rng.random((batch, cfg.input_len, 1), dtype=np.float32)
        a1 = conv1d_forward(x, w1, b1, c1.stride, c1.activation)
        a2 = maxpool1d_forward(a1, pool.pool, pool.stride)
        a3 = conv1d_forward(a2, w2, b2, c2.stride, c2.activation)
        a4 = global_avg_pool_forward(a3)
        ops = {
            "conv1": lambda: conv1d_forward(x, w1, b1, c1.stride, c1.activation),
            "pool": lambda: maxpool1d_forward(a1, pool.pool, pool.stride),
            "conv2": lambda: conv1d_forward(a2, w2, b2, c2.stride, c2.activation),
            "gap": lambda: global_avg_pool_forward(a3),
            "dense": lambda: dense_forward(a4, wd, bd, model.final_activation),
        }
        for op, fn in ops.items():
            _loop(tracer, f"nn.{op}_fwd.b{batch}", fn, calls)
        _loop(tracer, f"nn.forward.b{batch}", lambda: model.forward(x), calls)
        labels = rng.integers(0, cfg.class_count, batch)
        probs, caches = model.forward(x, want_cache=True)
        _, dlogits = loss_and_grad(probs, labels, cfg.loss, model.final_activation)
        _loop(tracer, f"nn.backward.b{batch}", lambda: model.backward(caches, dlogits), calls)
        if batch == 20:
            _loop(tracer, "nn.loss_grad.b20",
                  lambda: loss_and_grad(probs, labels, cfg.loss, model.final_activation),
                  calls)
    x1 = rng.random((1, cfg.input_len, 1), dtype=np.float32)
    _loop(tracer, "nn.forward.b1", lambda: model.forward(x1), 500)

    flat = model.flat_params.copy()
    grad = (rng.standard_normal(flat.size) * 1e-3).astype(flat.dtype)
    state = adam_init([flat])
    step = iter(range(1, 10**9))
    _loop(tracer, "nn.adam", lambda: adam_step([flat], [grad], state, next(step)), 300)

    ckpt = Checkpoint(cfg, model.copy_weights(), 0, 0.0)
    _loop(tracer, "nn.model_build", ckpt.to_model, 300)
    sample = rng.integers(0, 256, cfg.input_len, dtype=np.uint8).tobytes()
    _loop(tracer, "train.predict", lambda: predict(ckpt, sample), 300)


def probe_train(tracer, packet_all: DatasetFile, seed):
    """One epoch over a subset, then evaluate; nn probes give the parts."""
    cfg = model_config(seed, 1)
    tr, va = train_val_split(_every(packet_all, TRAIN_PROBE_SAMPLES), 0.2, seed)
    with tracer.span("train.train") as c:
        result = train(cfg, tr, va)
        c.update(train_counts((cfg, tr, va), {}, result))
    held = _every(packet_all, EVAL_PROBE_SAMPLES)
    with tracer.span("train.evaluate") as c:
        evaluate(result[0], held)
        c.update(evaluate_counts((result[0], held), {}, None))


def probe(tracer, workload, work):
    probe_pcap_views(tracer, workload.corpus)
    packet_all = probe_cells(tracer, workload.corpus, work)
    probe_nn(tracer, workload.seed)
    probe_train(tracer, packet_all, workload.seed)


def subtree(spans, root_name):
    """The spans under the last root span called `root_name`."""
    table = SpanTable(spans)
    root = [r for r in spans if r["name"] == root_name][-1]
    return root, table.descendants(root)


def unit_costs(t: SpanTable) -> dict[str, float]:
    """Seconds per unit of work, for the modelled splits below."""
    us = {"parse_per_pkt": t.per("pcap.read", "packets") + t.per("pcap.dissect", "packets"),
          "fwd1": t.per("nn.forward.b1", "calls"),
          "fwd256": t.per("nn.forward.b256", "calls"),
          "build": t.per("nn.model_build", "calls"),
          "step": sum(t.per(f"nn.{p}", "calls") for p in
                      ("forward.b20", "loss_grad.b20", "backward.b20", "adam"))}
    return {k: v / 1e6 for k, v in us.items()}


def nn_seconds(rec, cost) -> float:
    """Modelled nn compute inside a train/evaluate/predict span: the counted
    work times the per-call costs the nn probes measured."""
    counts = rec["counts"]
    if rec["name"] == "train.predict":
        return counts["calls"] * (cost["fwd1"] + cost["build"])
    if not counts.get("cnn"):
        return 0.0
    if rec["name"] == "train.train":
        return (counts["steps"] * cost["step"]
                + counts["val_samples"] / EVAL_BATCH * cost["fwd256"])
    if rec["name"] == "train.evaluate":
        return counts["samples"] / EVAL_BATCH * cost["fwd256"]
    return 0.0


def module_shares(spans, cost) -> dict[str, float]:
    """Share of the traced operation's wall time spent in each module.

    Self time goes to the module named by the span's prefix, except that
    build_dataset and the baseline's unit collection hand their parse time
    (packets x probed read+dissect cost) to pcap, and train/evaluate/predict
    hand their modelled model compute to nn. Time the op spends outside any
    span is "other".
    """
    root, below = subtree(spans, "op")
    table = SpanTable(spans)
    seconds = dict.fromkeys(MODULES, 0.0)
    seconds["other"] = table.self_time(root)
    for rec in below:
        own = table.self_time(rec)
        module = rec["name"].split(".", 1)[0]
        if rec["name"] in ("views.build_dataset", "bench.collect_units"):
            moved = min(own, rec["counts"]["packets"] * cost["parse_per_pkt"])
            seconds["pcap"] += moved
        elif module == "train":
            moved = min(own, nn_seconds(rec, cost))
            seconds["nn"] += moved
        else:
            moved = 0.0
        seconds[module if module in seconds else "other"] += own - moved
    wall = duration(root)
    return {m: s / wall for m, s in seconds.items()}


def layer_metrics(spans, wall_untraced: float) -> dict[str, tuple[float, str]]:
    _, probed = subtree(spans, "probe")
    t = SpanTable(probed)
    m: dict[str, tuple[float, str]] = {}
    m["pcap.read_us_per_pkt"] = (t.per("pcap.read", "packets"), "us")
    m["pcap.dissect_us_per_pkt"] = (t.per("pcap.dissect", "packets"), "us")
    m["pcap.packets"] = (t.count("pcap.read", "packets"), "count")
    m["pcap.bytes"] = (t.count("pcap.read", "bytes"), "bytes")
    for v in VIEWS:
        m[f"views.group_us_per_pkt.{v}"] = (t.per(f"views.group.{v}", "packets"), "us")
        m[f"views.units.{v}"] = (t.count(f"views.group.{v}", "units"), "count")
        names = [f"views.assemble.{v}.{c}" for c in CATEGORIES]
        kept = sum(t.count(n, "kept") for n in names)
        m[f"views.kept_byte_ratio.{v}"] = (kept / sum(t.count(n, "produced") for n in names),
                                           "ratio")
    for c in CATEGORIES:
        names = [f"views.assemble.{v}.{c}" for v in VIEWS]
        m[f"views.assemble_us_per_sample.{c}"] = (
            sum(t.seconds(n) for n in names) / sum(t.count(n, "samples") for n in names) * 1e6,
            "us")
    for v in VIEWS:
        for c in CATEGORIES:
            m[f"views.cell_s.{v}_{c}"] = (t.seconds(f"views.cell.{v}_{c}"), "s")
    for stage in ("ftld_write", "ftld_read", "tensors"):
        m[f"views.{stage}_us_per_sample"] = (t.per(f"views.{stage}", "samples"), "us")

    for batch in NN_BATCHES:
        for op in NN_OPS:
            m[f"nn.{op}_fwd_us.b{batch}"] = (t.per(f"nn.{op}_fwd.b{batch}", "calls"), "us")
    for batch in (1, 20, 256):
        m[f"nn.forward_us.b{batch}"] = (t.per(f"nn.forward.b{batch}", "calls"), "us")
    for batch in (20, 256):
        m[f"nn.backward_us.b{batch}"] = (t.per(f"nn.backward.b{batch}", "calls"), "us")
    m["nn.loss_grad_us.b20"] = (t.per("nn.loss_grad.b20", "calls"), "us")
    m["nn.adam_us"] = (t.per("nn.adam", "calls"), "us")
    m["nn.model_build_us"] = (t.per("nn.model_build", "calls"), "us")

    cost = unit_costs(t)
    m["train.predict_overhead_us"] = (t.per("train.predict", "calls")
                                      - m["nn.forward_us.b1"][0], "us")
    m["train.step_us"] = (t.per("train.train", "steps"), "us")
    train_rec = t.named("train.train")[0]
    m["train.loop_overhead_share"] = (1 - nn_seconds(train_rec, cost) / duration(train_rec),
                                      "share")
    eval_rec = t.named("train.evaluate")[0]
    m["train.eval_overhead_share"] = (1 - nn_seconds(eval_rec, cost) / duration(eval_rec),
                                      "share")
    m["bench.features_us_per_unit"] = (t.per("bench.features", "units"), "us")
    m["bench.features_us_per_pkt"] = (t.per("bench.features", "packets"), "us")

    synth = SpanTable(spans).named("synth.corpus")
    m["synth.corpus_s"] = (float(np.median([duration(r) for r in synth])), "s")

    for module, share in module_shares(spans, cost).items():
        m[f"share.{module}"] = (share, "share")
    op_root, _ = subtree(spans, "op")
    m["trace.overhead_s"] = (duration(op_root) - wall_untraced, "s")
    return m
