"""Tests of the benchmark's own logic.  Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans as sp  # noqa: E402
import workloads  # noqa: E402
from wignernet import cli, network, training  # noqa: E402


def span(name, start, end, parent=-1, iteration=""):
    return [name, start, end, parent, iteration]


class TestTailPercentile:
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))
        assert sp.tail_percentile(values) == (99.0, 990, 1000)

    def test_one_sample_fewer_drops_to_the_next_rung(self):
        pct, value, n = sp.tail_percentile(list(range(1, 1000)))
        assert (pct, n) == (95.0, 999)
        assert value == 950

    def test_order_of_samples_does_not_matter(self):
        values = list(range(100, 0, -1))
        assert sp.tail_percentile(values) == (90.0, 90, 100)

    def test_too_few_samples_gives_none_with_the_count(self):
        assert sp.tail_percentile(range(19)) == (None, None, 19)
        assert sp.tail_percentile(range(20))[:2] == (50.0, 9)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("a.leaf", 15, 25, parent=1),
        span("b", 50, 90, parent=0),
        span("other-root", 200, 230),
    ]
    assert sp.self_times(spans) == [30, 20, 10, 40, 30]


def test_summary_counts_only_the_spans_of_one_part():
    tracer = sp.Tracer()
    tracer.spans = [
        span("training.train", 0, 100, iteration="train-0"),
        span("network.Adam.step", 10, 30, parent=0, iteration="train-0"),
        span("training.train", 200, 260, iteration="pipeline-0-1-train"),
        span("network.MlpModel.forward", 300, 310, iteration="infer-0-b1-0"),
    ]
    targets = ["training.train", "network.Adam.step", "network.MlpModel.forward"]
    train = tracer.summary(targets, "train")
    assert train["training.train"] == {"calls": 1, "self_s": 80e-9, "p50_ms": 100e-6}
    assert train["network.Adam.step"]["calls"] == 1
    assert train["network.MlpModel.forward"] == {"calls": 0, "self_s": 0.0}
    assert tracer.summary(targets, "pipeline")["training.train"]["calls"] == 1
    assert tracer.summary(targets)["training.train"]["calls"] == 2


def test_training_steps_and_epochs_from_spans():
    spans = [
        span("training.train", 0, 1000),
        span("network.MlpModel.forward_train", 10, 20, parent=0),
        span("network.Adam.step", 40, 55, parent=0),
        span("network.MlpModel.forward_train", 60, 70, parent=0),
        span("network.Adam.step", 80, 90, parent=0),
        span("network.MlpModel.forward", 100, 120, parent=0),
        span("network.MlpModel.forward_train", 130, 140, parent=0),
        span("network.Adam.step", 150, 170, parent=0),
        span("network.MlpModel.forward", 180, 200, parent=0),
        span("training.evaluate", 210, 260, parent=0),
        span("network.MlpModel.forward", 215, 250, parent=9),
    ]
    for s in spans:
        s[sp.ITERATION] = "train-0"
    # The same training inside a pipeline command belongs to another part.
    spans.append(span("training.train", 2000, 3000, iteration="pipeline-0-1-train"))
    spans.append(span("network.MlpModel.forward_train", 2010, 2020, parent=11, iteration="pipeline-0-1-train"))
    spans.append(span("network.Adam.step", 2040, 2055, parent=11, iteration="pipeline-0-1-train"))
    steps, epochs = workloads._training_steps(spans)
    assert steps == [45, 30, 40]
    assert epochs == [120, 80]


def test_timings_are_scaled_by_the_reference_runs_around_their_step():
    run = workloads.Run()
    run.reference = [2.0, 2.0, 4.0]
    run.samples = {"x_s": [(0, 1.0), (1, 1.0)]}
    ref = workloads.REFERENCE_S
    assert run.calibrated("x_s") == pytest.approx([ref / 2.0, ref / 3.0])
    assert run.calibrated("missing") == []


def _bindings():
    """Every attribute of every wignernet module and class, by identity."""
    seen = {}
    for key, mod in list(sys.modules.items()):
        if key == "wignernet" or key.startswith("wignernet."):
            for name, value in vars(mod).items():
                seen[(key, name)] = id(value)
                if isinstance(value, type) and value.__module__.startswith("wignernet"):
                    for attr, member in vars(value).items():
                        seen[(key, name, attr)] = id(member)
    return seen


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    original_backward = network.backward
    tracer = sp.Tracer()
    with tracer.installed(workloads.TRACE_TARGETS):
        assert not tracer.absent
        # training imported backward by name; its binding must be wrapped too.
        assert training.backward is network.backward is not original_backward
        assert getattr(cli.save_model, "__perfbench_traced__", False)
        model = network.init_model(network.ArchitectureSpec(hidden_dims=(3,)), 0)
        model.forward(np.zeros((2, 4)))
    assert _bindings() == before
    assert training.backward is original_backward
    names = [s[sp.NAME] for s in tracer.spans]
    assert names == [
        "network.MlpModel.forward",
        "network.DenseLayer.forward",
        "network.BatchNormLayer.forward_infer",
        "network.DenseLayer.forward",
    ]
    assert [s[sp.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]


def test_tracer_restores_bindings_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with sp.Tracer().installed(workloads.TRACE_TARGETS):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_traced_run_alternates_iterations_and_restores_bindings(tmp_path):
    before = _bindings()
    tracer = sp.Tracer()
    m = workloads.measure("infer", 1, 0.0, tmp_path, tracer)
    assert _bindings() == before
    assert m.run.failed == 0, m.run.errors
    samples = m.run.samples
    assert len(samples["infer_round_s"]) == len(samples["infer_round_s" + workloads.TRACED]) == 1
    assert len(samples["train_s"]) == len(samples["train_s" + workloads.TRACED]) == 1
    metrics = workloads.per_layer_metrics(tracer, m)
    calls = workloads.INFER_CALLS_PER_ROUND
    assert metrics["infer.network.MlpModel.forward.calls"] == (sum(calls.values()), "count")
    assert metrics["train.network.Adam.step.calls"][0] == metrics["train.training.steps"][0] > 0
    assert metrics["pipeline.cli.main.calls"] == (len(workloads.PIPELINE_PASS) + 1, "count")
    assert all(value is not None for value, _ in metrics.values())


def test_missing_names_are_reported_absent():
    tracer = sp.Tracer()
    targets = ("network.no_such_function", "network.MlpModel.no_such_method",
               "network.NoSuchClass.forward", "no_such_module.f", "network.mse_loss")
    with tracer.installed(targets):
        network.mse_loss(np.zeros(2), np.ones(2))
    assert tracer.absent == list(targets[:4])
    summary = tracer.summary(["network.mse_loss"])
    assert summary["network.mse_loss"]["calls"] == 1


def test_seed_changes_the_generated_inputs():
    stock = cli.RunConfig.from_dict(cli.default_config())
    one = workloads.make_queries(stock, 1)
    assert np.array_equal(one, workloads.make_queries(stock, 1))
    assert not np.array_equal(one, workloads.make_queries(stock, 2))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
