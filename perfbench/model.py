"""The served model, built identically by the server process and by the
client that computes reference labels.

The model is fixed (its own seed); only the traffic depends on the
workload seed, so every run serves the same forward cost.
"""

from __future__ import annotations

import numpy as np

#: Paper-scale backbone: window 120, hidden 72, 4 blocks (Section VII-A-1).
PROFILE = "paper"
NUM_CHANNELS = 6
WINDOW_LENGTH = 120
#: HHAR's six activities.
NUM_CLASSES = 6
MODEL_SEED = 20250101
DTYPE = np.float32


def server_config():
    from repro.serving import ServerConfig

    return ServerConfig()


def build_model():
    """The float32 classifier in eval mode."""
    from repro.core.experiment import get_profile
    from repro.models.backbone import SagaBackbone
    from repro.models.composite import ClassificationModel

    config = get_profile(PROFILE).backbone_config(NUM_CHANNELS)
    rng = np.random.default_rng(MODEL_SEED)
    model = ClassificationModel(SagaBackbone(config, rng=rng), NUM_CLASSES, rng=rng)
    model.to(DTYPE)
    model.eval()
    return model


def build_compiled():
    """The compiled model with every batch bucket already traced, so no
    request during the timed window pays for a trace."""
    from repro.nn.jit import CompiledModule

    model = build_model()
    buckets = server_config().compile_bucket_sizes()
    compiled = CompiledModule(model, bucket_sizes=buckets)
    rng = np.random.default_rng(MODEL_SEED)
    window_length = model.backbone.config.window_length
    for size in buckets:
        compiled.warmup(rng.standard_normal((size, window_length, NUM_CHANNELS)).astype(DTYPE))
    return compiled


def reference_probabilities(model, windows: np.ndarray) -> np.ndarray:
    """Eager float32 probabilities for ``windows``, 32 rows at a time."""
    windows = np.asarray(windows, dtype=DTYPE)
    return np.concatenate([model.predict_proba(windows[i : i + 32]) for i in range(0, len(windows), 32)])
