"""Smoke-scale integration tests for every experiment driver (one per table/figure)."""

import dataclasses
import io

import numpy as np
import pytest

from repro.experiments import (
    SCALES,
    SweepReporter,
    ablation,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    format_table,
    get_scale,
    relative_change,
    table1,
    table2,
)
from repro.experiments.runner import ExperimentOutcome
from repro.parallel import TaskEvent


SMOKE = get_scale("smoke")


class TestConfig:
    def test_presets_exist(self):
        assert {"smoke", "bench", "paper"} <= set(SCALES)

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_with_overrides(self):
        epochs = SMOKE.epochs
        scale = SMOKE.with_overrides(epochs=epochs + 1)
        assert scale.epochs == epochs + 1
        assert SMOKE.epochs == epochs  # the preset itself is unchanged
        assert SMOKE is not scale
        with pytest.raises(dataclasses.FrozenInstanceError):
            SMOKE.epochs = 7

    def test_lr_milestones(self):
        scale = SMOKE.with_overrides(lr_milestone_fractions=(0.5, 0.75))
        assert scale.lr_milestones(epochs=100) == [50, 75]


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table([{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_relative_change(self):
        assert relative_change(70, 100) == pytest.approx(-0.3)
        assert relative_change(5, 0) == 0.0

    def test_format_table_column_order_and_float_format(self):
        rows = [{"b": 0.12345, "a": "x", "flag": True}, {"a": "longer", "flag": False}]
        lines = format_table(rows, columns=["a", "b", "flag"],
                             float_format="{:.2f}").splitlines()
        assert lines[0].split() == ["a", "b", "flag"]
        assert lines[2].split() == ["x", "0.12", "True"]
        # A missing key renders as an empty cell; columns stay aligned.
        assert lines[3].split() == ["longer", "False"]
        assert lines[0].index("b") == lines[2].index("0.12") == len("longer  ")


def _outcome(name, cache_hit=False, error=None):
    return ExperimentOutcome(name=name, scale="smoke", config_hash="0" * 8,
                             path=f"artifacts/{name}.json", cache_hit=cache_hit,
                             elapsed_seconds=0.0 if cache_hit else 1.25, artifact={},
                             error=error)


class TestSweepReporter:
    def test_counts_ran_cached_and_failed(self):
        reporter = SweepReporter(total=3, stream=io.StringIO())
        reporter.on_outcome(_outcome("fig4"))
        reporter.on_outcome(_outcome("fig5", cache_hit=True))
        reporter.on_outcome(_outcome("fig6", error="boom\ntraceback"))
        assert [o.name for o in reporter.ran] == ["fig4"]
        assert [o.name for o in reporter.cached] == ["fig5"]
        assert [o.name for o in reporter.failed] == ["fig6"]
        assert "3 experiments | 1 ran | 1 cached | 1 failed" in reporter.summary_line()

    def test_prints_one_line_per_outcome_and_failure_details(self):
        stream = io.StringIO()
        reporter = SweepReporter(total=2, stream=stream)
        reporter.on_outcome(_outcome("fig4"))
        reporter.on_outcome(_outcome("fig6", error="boom\ntraceback"))
        reporter.print_summary()
        lines = stream.getvalue().splitlines()
        assert lines[0] == "== [1/2] fig4 @ smoke: ran in 1.2s -> artifacts/fig4.json"
        assert lines[1] == "!! [2/2] fig6 @ smoke: FAILED (boom)"
        assert lines[2].startswith("sweep: 2 experiments")
        assert lines[3:] == ["--- fig6 failure ---", "boom", "traceback"]

    def test_quiet_reporter_prints_nothing_but_counts(self):
        stream = io.StringIO()
        reporter = SweepReporter(total=1, stream=stream, verbose=False)
        reporter.on_event(TaskEvent(kind="retrying", key="fig4", attempt=1, error="x"))
        reporter.on_outcome(_outcome("fig4", cache_hit=True))
        assert stream.getvalue() == ""
        assert len(reporter.cached) == 1

    def test_retry_event_is_reported(self):
        stream = io.StringIO()
        reporter = SweepReporter(total=1, stream=stream)
        reporter.on_event(TaskEvent(kind="retrying", key="fig4", attempt=1, error="x"))
        assert stream.getvalue() == "?? fig4: attempt 1 failed (x); retrying\n"


class TestTable1:
    def test_run_reproduces_table(self):
        result = table1.run()
        assert all(row["match"] for row in result["verification"])
        rows = result["tables"][(27, 9)]
        by_name = {row["neuron"]: row for row in rows}
        assert by_name["proposed"]["parameters"] == 279
        assert by_name["proposed"]["macs"] == 288
        assert by_name["proposed"]["parameters_per_output"] < \
            by_name["quad2"]["parameters_per_output"]
        assert "proposed" in result["report"]


@pytest.mark.slow
class TestFig4:
    def test_smoke_run(self):
        result = fig4.run(SMOKE)
        assert len(result["rows"]) == len(SMOKE.resnet_depths) * 2
        assert {"model", "test_accuracy", "parameters", "macs"} <= set(result["rows"][0])
        assert len(result["comparisons"]) == len(SMOKE.resnet_depths) - 1
        # The quadratic network at depth d must be cheaper than the linear
        # network at the next depth by more than a quarter (the -29% / -50%
        # arrows of Fig. 4).  Cost is exact regardless of training noise.
        for comparison in result["comparisons"]:
            assert comparison["parameter_change"] < -0.25
            assert comparison["mac_change"] < -0.25

    def test_paper_scale_costs(self):
        rows = fig4.paper_scale_costs(depths=(20, 32), rank=9, image_size=32, base_width=16)
        by_model = {row["model"]: row for row in rows}
        # ResNet-20/32 at CIFAR scale have ≈0.27 M / ≈0.46 M parameters (the
        # Fig. 4 x-axis).  The quadratic variant stays close to the linear one:
        # the per-output overhead is < 1 parameter (Eq. 9), plus a ceiling
        # effect because ceil(width / (k+1)) neurons are needed when k+1 does
        # not divide the layer width (16/32 channels, k = 9).
        assert by_model["ResNet-20/linear"]["parameters_millions"] == \
            pytest.approx(0.27, abs=0.03)
        assert by_model["ResNet-32/linear"]["parameters_millions"] == \
            pytest.approx(0.46, abs=0.05)
        assert by_model["ResNet-20/proposed"]["parameters_millions"] < \
            1.15 * by_model["ResNet-20/linear"]["parameters_millions"]


@pytest.mark.slow
class TestFig5:
    def test_smoke_run(self):
        result = fig5.run(SMOKE)
        neurons = {row["neuron"] for row in result["rows"]}
        assert neurons == {"quad1", "quad2", "proposed"}
        assert result["savings"], "expected per-depth savings entries"
        for saving in result["savings"]:
            # Paper: at least 24% fewer parameters and MACs than Quad-1 / Quad-2.
            assert saving["parameter_change"] < -0.24
            assert saving["mac_change"] < -0.24


@pytest.mark.slow
class TestFig6:
    def test_smoke_run(self):
        result = fig6.run(SMOKE)
        labels = {report["label"] for report in result["reports"]}
        assert "Ours" in labels
        assert any(label.startswith("KNN-") for label in labels)
        ours = next(report for report in result["reports"] if report["label"] == "Ours")
        assert not ours["diverged"]
        assert set(result["curves"]) == labels
        # Deploying the neuron everywhere beats the kervolution configurations,
        # which degrade or destabilize as more layers use them.
        assert all(ours["best_train_accuracy"] >= report["best_train_accuracy"]
                   for report in result["reports"] if report["label"].startswith("KNN-"))


@pytest.mark.slow
class TestFig7:
    def test_smoke_run(self):
        result = fig7.run(SMOKE, depth=8)
        assert result["summary"]["num_layers"] > 0
        kinds = {row["kind"] for row in result["stats"]}
        assert kinds == {"linear", "quadratic"}
        assert len(result["significance"]) == result["summary"]["num_layers"]
        # Fig. 7: the importance of the quadratic term differs a lot between layers.
        assert result["summary"]["spread_ratio_max_to_min"] > 1.5


@pytest.mark.slow
class TestFig8:
    def test_smoke_run(self):
        result = fig8.run(SMOKE, num_images=2)
        assert len(result["rows"]) == 2
        summary = result["summary"]
        assert 0.0 <= summary["mean_linear_low_fraction"] <= 1.0
        assert 0.0 <= summary["mean_quadratic_low_fraction"] <= 1.0
        for row in result["rows"]:
            assert 0.0 <= row["linear_low_fraction"] <= 1.0
            assert 0.0 <= row["quadratic_low_fraction"] <= 1.0
            assert row["quadratic_response_std"] > 0


@pytest.mark.slow
class TestTable2:
    def test_smoke_run(self):
        scale = SMOKE.with_overrides(translation_epochs=2, transformer_lambda_lrs=(1e-4,))
        result = table2.run(scale)
        assert len(result["rows"]) == 4
        # Paper: the quadratic Transformer is roughly 20% smaller.
        assert result["parameters"]["parameter_change"] < -0.10
        for row in result["rows"]:
            assert 0.0 <= row["baseline"] <= 100.0
            assert 0.0 <= row["quadratic_1e-04"] <= 100.0

    def test_build_transformer_dim_scaling(self):
        from repro.data import SyntheticTranslationTask
        task = SyntheticTranslationTask(train_size=16, test_size=4, seed=0)
        baseline = table2.build_transformer(task, SMOKE, "linear")
        quadratic = table2.build_transformer(task, SMOKE, "proposed")
        assert quadratic.num_parameters() < baseline.num_parameters()
        assert quadratic.model_dim % SMOKE.transformer_heads == 0


@pytest.mark.slow
class TestAblation:
    def test_rank_sweep(self):
        result = ablation.run_rank_sweep(SMOKE, ranks=(1, 3))
        assert [row["rank"] for row in result["rows"]] == [1, 3]
        assert not any(row["diverged"] for row in result["rows"])

    def test_vectorized_output_ablation(self):
        result = ablation.run_vectorized_output_ablation(SMOKE)
        comparison = result["comparison"]
        # Dropping the vectorized output forces one neuron per channel, which
        # must cost strictly more parameters and MACs (Sec. III-C).
        assert comparison["parameter_ratio"] > 1.5
        assert comparison["mac_ratio"] > 1.5
