"""bytecap: byte-stream traffic classification toolkit.

Pipeline: read classic pcap captures, dissect layer boundaries, group
packets into views (packet / flow / session), excise header bytes per
category, assemble fixed-length byte samples, and train a small 1D-CNN
on them. A timing harness compares that path against a conventional
feature-extraction baseline.
"""

from .pcap import (
    CaptureMeta,
    Dissection,
    FiveTuple,
    L3Kind,
    NonIpPacketError,
    PacketRecord,
    PcapFormatError,
    PcapReader,
    SessionKey,
    TruncatedCaptureError,
    dissect,
    keys,
    read_pcap,
    read_pcap_records,
    write_pcap,
)
from .views import (
    BINARY_CLASSES,
    BOTNET_CLASSES,
    Capture,
    DatasetFile,
    DatasetFormatError,
    HeaderCategory,
    Provenance,
    Sample,
    ViewKind,
    assemble_sample,
    build_dataset,
    byte_distribution,
    class_catalog,
    filter_packets,
    read_capture,
    read_dataset,
    read_dataset_header,
    split_indices,
    split_view,
    strip_headers,
    train_val_split,
    write_dataset,
)
from .synth import (
    SynthClass,
    binary_synth_classes,
    read_labels_file,
    synth_classes,
    synth_corpus,
    write_labels_file,
)
from .nn import (
    Checkpoint,
    Conv1dSpec,
    DenseSpec,
    GlobalAvgPoolSpec,
    MaxPool1dSpec,
    Model,
    ModelConfig,
    ShapeError,
    WeightsFormatError,
    adam_init,
    adam_step,
    conv1d_forward,
    default_config,
    dense_forward,
    global_avg_pool_forward,
    load_weights,
    loss_and_grad,
    maxpool1d_forward,
    save_weights,
)
from .train import (
    MetricsReport,
    TrainHistory,
    evaluate,
    metrics_from_confusion,
    predict,
    train,
)
from .bench import TimingReport, extract_stat_features, time_pipelines, timed

__version__ = "0.1.0"
