"""The training workloads: ``adapt`` and ``pretrain_dp2``.

* ``adapt`` runs Saga task adaptation, ``SagaPipeline.fit(...,
  weights="search")``: three LWS evaluations, each a full masked pre-train
  plus fine-tune, then the final pre-train and fine-tune.  It is the paper's
  own cost (Algorithm 1): eager float64 autograd, no serving code.
* ``pretrain_dp2`` pre-trains the same backbone on the same unlabelled pool
  with uniform weights through the 2-worker process backend of
  ``repro.parallel`` (fork, shared-memory all-reduce, broadcast).

Both use the ``bench`` experiment profile's backbone, dataset scale and
budgets on HHAR activity recognition with 10% labels.  The workload seed
picks the generated dataset, its splits, the labelled subset and the
training randomness.
"""

from __future__ import annotations

import logging
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from . import checks
from .metrics import training_layers
from .spans import SpanRecorder

PROFILE = "bench"
DATASET = "hhar"
TASK = "activity"
LABEL_RATE = 0.10
SETUPS = 5  # dataset generations per run; setup_s is their median
PARALLEL_WORKERS = 2

#: Seed bands of the output checks.  Over twelve seeds (100-111) test
#: accuracy read 0.36-0.54, adapt's final pre-train loss 0.112-0.166,
#: pretrain_dp2's final loss 0.117-0.174 and its per-level losses
#: 0.059-0.206; each band adds a margin on both sides.  A change in
#: arithmetic order stays inside.  A masking level that masks nothing drives
#: its loss to 0 and fails the per-level band.
ADAPT_ACCURACY_BAND = (0.2, 0.75)
ADAPT_FINAL_LOSS_BAND = (0.06, 0.3)
DP2_FINAL_LOSS_BAND = (0.06, 0.3)
DP2_LEVEL_LOSS_BAND = (0.02, 0.4)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class TaskData:
    unlabelled: object
    labelled: object
    validation: object
    test: object


def profile():
    from repro import get_profile

    return get_profile(PROFILE)


def prepare(seed: int) -> TaskData:
    """Generate the dataset at the profile's scale and window, then split it."""
    from repro import IMUDataset, load_dataset

    prof = profile()
    dataset = load_dataset(DATASET, scale=prof.dataset_scale, seed=seed)
    # Stride-subsample the time axis so the shorter window still spans the
    # whole recording, as the experiment runner does for this profile.
    stride = max(1, dataset.window_length // prof.window_length)
    windows = dataset.windows[:, ::stride, :][:, : prof.window_length, :]
    dataset = IMUDataset(
        windows=windows, labels=dataset.labels,
        metadata=replace(dataset.metadata, window_length=windows.shape[1]),
    )
    splits = dataset.split(rng=np.random.default_rng(seed), stratify_task=TASK)
    labelled = splits.train.labelled_fraction(TASK, LABEL_RATE, rng=np.random.default_rng(seed + 1))
    return TaskData(splits.train, labelled, splits.validation, splits.test)


def saga_config(pretrain_epochs: int, finetune_epochs: int, lws_budget: int, lws_initial: int, **pretrain):
    from repro import SagaConfig
    from repro.bayesopt.search import LWSConfig
    from repro.training.finetune import FinetuneConfig
    from repro.training.pretrain import PretrainConfig

    prof = profile()
    # log_every=1: every epoch's mean loss reaches the LossLog below, which
    # is how the untraced run checks that every loss is finite.
    return SagaConfig(
        backbone=prof.backbone_config(6),
        pretrain=PretrainConfig(
            epochs=pretrain_epochs, batch_size=prof.batch_size, learning_rate=prof.learning_rate,
            log_every=1, **pretrain,
        ),
        finetune=FinetuneConfig(
            epochs=finetune_epochs, batch_size=prof.batch_size, learning_rate=prof.learning_rate, log_every=1,
        ),
        lws=LWSConfig(budget=lws_budget, initial_random=lws_initial),
    )


def full_config(**pretrain):
    prof = profile()
    return saga_config(prof.pretrain_epochs, prof.finetune_epochs, prof.lws_budget, prof.lws_initial_random, **pretrain)


def warmup_config(**pretrain):
    return saga_config(1, 1, 2, 1, **pretrain)


class LossLog(logging.Handler):
    """Collects the per-epoch mean losses the training loops log."""

    PRETRAIN = "pretrain epoch %d loss %.5f"
    FINETUNE = "finetune[%s] epoch %d loss %.5f"

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.pretrain: List[float] = []
        self.finetune: List[float] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg == self.PRETRAIN:
            self.pretrain.append(float(record.args[-1]))
        elif record.msg == self.FINETUNE:
            self.finetune.append(float(record.args[-1]))

    def __enter__(self) -> "LossLog":
        logger = logging.getLogger("repro.training")
        self._level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc_info) -> None:
        logger = logging.getLogger("repro.training")
        logger.removeHandler(self)
        logger.setLevel(self._level)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _loader_iter(recorder: SpanRecorder, original):
    def timed_iter(self):
        iterator = original(self)
        while True:
            try:
                batch = recorder.call("loader", next, (iterator,), {})
            except StopIteration:
                return
            yield batch

    return timed_iter


def install_training_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every training layer's public entry points in this process."""
    import repro.parallel.engine as engine_module
    import repro.training.finetune as finetune_module
    import repro.training.pretrain as pretrain_module
    from repro.bayesopt.search import LowCostWeightSearch
    from repro.datasets.loaders import DataLoader
    from repro.masking.multi import MultiLevelMasker
    from repro.models.classifier import GRUClassifier
    from repro.models.composite import ClassificationModel, MaskedReconstructionModel
    from repro.nn.losses import CrossEntropyLoss, WeightedReconstructionLoss
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.parallel import DataParallelEngine
    from repro.training.finetune import Finetuner
    from repro.training.pretrain import Pretrainer

    recorder.install(
        Pretrainer, "pretrain", "pretrain",
        note=lambda args, kwargs, result: float(len(args[1]) * args[0].config.epochs),
    )
    recorder.install(Finetuner, "finetune", "finetune")
    search = LowCostWeightSearch.__dict__["search"]

    def traced_search(self, evaluate, *args, **kwargs):
        return recorder.call(
            "bayesopt.search", search, (self, recorder.wrap(evaluate, "bayesopt.evaluate")) + args, kwargs
        )

    recorder.patch(LowCostWeightSearch, "search", traced_search)
    recorder.install(MultiLevelMasker, "mask_all_levels", "masking")
    recorder.install(MaskedReconstructionModel, "reconstruct_all_levels", "forward")
    recorder.install(ClassificationModel, "forward", "forward")
    recorder.install(GRUClassifier, "forward", "gru")
    recorder.install(WeightedReconstructionLoss, "compute", "loss")
    recorder.install(CrossEntropyLoss, "forward", "loss")
    recorder.install(Tensor, "backward", "backward")
    recorder.install(Adam, "step", "optim")
    for module in (pretrain_module, finetune_module, engine_module):
        recorder.install(module, "clip_grad_norm", "optim")
    recorder.patch(DataLoader, "__iter__", _loader_iter(recorder, DataLoader.__dict__["__iter__"]))
    for method, label in (
        ("start", "parallel.start"), ("close", "parallel.close"), ("train_step", "parallel.step"),
        ("accumulate", "parallel.accumulate"), ("broadcast", "parallel.broadcast"),
    ):
        recorder.install(DataParallelEngine, method, label)


def respawns_total() -> float:
    from repro import get_registry

    family = get_registry().get("parallel_respawns_total")
    return sum(child.value for _, child in family.children()) if family is not None else 0.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed training call and what it produced."""

    seconds: float
    samples: int
    pretrain_losses: List[float] = field(default_factory=list)
    finetune_losses: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    accuracy: Optional[float] = None
    final_pretrain_loss: float = math.nan
    per_level: Dict[str, float] = field(default_factory=dict)
    pipeline: object = None


def adapt_op(data: TaskData, seed: int, config=None) -> Op:
    """One timed ``SagaPipeline.fit`` with LWS; :func:`finish_adapt` evaluates it."""
    from repro import SagaPipeline

    config = config if config is not None else full_config()
    pipeline = SagaPipeline(config)
    with LossLog() as log:
        started = time.perf_counter()
        pipeline.fit(data.unlabelled, data.labelled, TASK, data.validation,
                     weights="search", rng=np.random.default_rng(seed))
        seconds = time.perf_counter() - started
    cycles = config.lws.budget + 1  # each LWS evaluation, then the final fit
    op = Op(
        seconds=seconds,
        samples=cycles * (config.pretrain.epochs * len(data.unlabelled) + config.finetune.epochs * len(data.labelled)),
        pretrain_losses=log.pretrain,
        finetune_losses=log.finetune,
    )
    op.pipeline = pipeline
    op.final_pretrain_loss = log.pretrain[-1] if log.pretrain else math.nan
    op.failures += checks.check_finite("adapt pre-train", log.pretrain)
    op.failures += checks.check_finite("adapt fine-tune", log.finetune)
    return op


def finish_adapt(op: Op, data: TaskData) -> None:
    """Test accuracy of the adapted model (untimed, outside any tracing)."""
    op.accuracy = op.pipeline.evaluate(data.test, TASK).accuracy


def check_adapt(op: Op) -> List[str]:
    return (
        checks.check_band("adapt test accuracy", op.accuracy, ADAPT_ACCURACY_BAND)
        + checks.check_band("adapt final pre-train loss", op.final_pretrain_loss, ADAPT_FINAL_LOSS_BAND)
    )


def pretrain_op(data: TaskData, seed: int, epochs: Optional[int] = None) -> Op:
    """One 2-worker ``Pretrainer.pretrain`` call, engine start and close included."""
    from repro.training.pretrain import Pretrainer

    config = full_config(num_workers=PARALLEL_WORKERS, parallel_backend="process")
    pretrain = config.pretrain if epochs is None else replace(config.pretrain, epochs=epochs)
    started = time.perf_counter()
    result = Pretrainer(pretrain, config.backbone).pretrain(data.unlabelled, rng=np.random.default_rng(seed))
    seconds = time.perf_counter() - started
    losses = result.history.losses()
    op = Op(seconds=seconds, samples=len(data.unlabelled) * pretrain.epochs, pretrain_losses=losses)
    op.final_pretrain_loss = losses[-1] if losses else math.nan
    op.per_level = dict(result.per_level_losses)
    op.failures += checks.check_finite("pretrain_dp2", losses)
    op.failures += checks.check_finite("pretrain_dp2 per level", list(op.per_level.values()))
    return op


def check_pretrain(op: Op) -> List[str]:
    failures = checks.check_band("pretrain_dp2 final loss", op.final_pretrain_loss, DP2_FINAL_LOSS_BAND)
    for level, loss in sorted(op.per_level.items()):
        failures += checks.check_band(f"pretrain_dp2 {level} loss", loss, DP2_LEVEL_LOSS_BAND)
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, warm up, then time whole calls until ``seconds`` have passed."""
    from .metrics import Outcome, span_details

    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        data = prepare(seed)
        setups.append(time.perf_counter() - started)

    if workload == "adapt":
        def one():
            return adapt_op(data, seed)

        warm = adapt_op(data, seed, warmup_config())
        finish_adapt(warm, data)
    else:
        def one():
            return pretrain_op(data, seed)

        warm = pretrain_op(data, seed, epochs=1)

    def measure(budget: float) -> List[Op]:
        ops: List[Op] = []
        started = time.perf_counter()
        while not ops or time.perf_counter() - started < budget:
            ops.append(one())
        return ops

    outcome = Outcome()
    outcome.failures += warm.failures
    traced: List[Op] = []
    if trace:
        plain = measure(seconds / 2)
        recorder = SpanRecorder()
        respawned = respawns_total()
        install_training_wrappers(recorder)
        try:
            traced = measure(seconds / 2)
        finally:
            recorder.uninstall()
        spans = recorder.snapshot()
        wall = sum(op.seconds for op in traced)
        outcome.per_layer.update(training_layers(spans, wall, respawns_total() - respawned))
        outcome.per_layer["tracing_overhead"] = statistics.median(op.seconds for op in traced) / statistics.median(
            op.seconds for op in plain
        )
        outcome.detail += span_details(spans)
    else:
        plain = measure(seconds)

    ops = plain + traced
    for op in ops:
        if workload == "adapt":
            finish_adapt(op, data)
        outcome.failures += op.failures
        outcome.failures += check_adapt(op) if workload == "adapt" else check_pretrain(op)
        losses = op.pretrain_losses + op.finetune_losses
        outcome.attempted += len(losses)
        outcome.failed += sum(not math.isfinite(value) for value in losses)

    times = [op.seconds for op in plain]
    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * statistics.median(times),
        "throughput_per_s": sum(op.samples for op in plain) / sum(times),
    }
    outcome.samples = {"setup_s": len(setups), "latency_p50_ms": len(times), "throughput_per_s": len(times)}
    name = "adapt_s" if workload == "adapt" else "train_samples_per_s"
    value = statistics.median(times) if workload == "adapt" else outcome.end_to_end["throughput_per_s"]
    outcome.detail.insert(0, (name, value, "s" if workload == "adapt" else "samples/s", len(times)))
    outcome.detail.insert(1, ("error_rate", outcome.failed / max(outcome.attempted, 1), "share", outcome.attempted))
    outcome.detail.insert(2, ("slowest_call_ms", 1000.0 * max(times), "ms", len(times)))
    last = ops[-1]
    outcome.detail.append(("final_pretrain_loss", last.final_pretrain_loss, "mse", len(ops)))
    if workload == "adapt":
        outcome.detail.append(("test_accuracy", last.accuracy, "share", len(ops)))
    for level, loss in sorted(last.per_level.items()):
        outcome.detail.append((f"final_{level}_loss", loss, "mse", len(ops)))
    return outcome
