"""Tests for the dynamic-job API surface: DynamicJob, DynamicResult, campaigns."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.api import (
    DYNAMIC_JOB_FORMAT_VERSION,
    DynamicJob,
    DynamicResult,
    PlatformRecipe,
    Session,
)
from repro.dynamics import TraceSpec
from repro.exceptions import ConfigError
from repro.experiments import (
    check_dynamic_scaling_shape,
    dynamic_ensemble_records,
    dynamic_jobs,
    dynamic_scaling,
    scaled_parameters,
)

RECIPE = PlatformRecipe.of("random", num_nodes=10, density=0.3, seed=3)
TRACE = TraceSpec(seed=5, horizon=4, drift=0.3, congestion_rate=0.3)


def tiny_parameters(**overrides):
    defaults = dict(
        dynamic_nodes=10, dynamic_density=0.3, dynamic_seeds=2, dynamic_horizon=4
    )
    defaults.update(overrides)
    return replace(scaled_parameters(0.1), **defaults)


class TestDynamicJob:
    def test_json_round_trip(self):
        job = DynamicJob(RECIPE, trace=TRACE, source=0, threshold=0.2)
        restored = DynamicJob.from_json(job.to_json())
        assert restored == job
        assert restored.cache_key() == job.cache_key()
        assert restored.trace == TRACE
        assert isinstance(restored.platform, PlatformRecipe)

    def test_payload_is_version_stamped(self):
        payload = DynamicJob(RECIPE).canonical_payload()
        assert payload["format_version"] == DYNAMIC_JOB_FORMAT_VERSION
        assert payload["kind"] == "dynamic"
        with pytest.raises(ConfigError):
            DynamicJob.from_dict({**payload, "format_version": 999})

    def test_cache_key_depends_on_trace_and_policy_knobs(self):
        job = DynamicJob(RECIPE, trace=TRACE)
        assert job.cache_key() == DynamicJob(RECIPE, trace=TRACE).cache_key()
        assert (
            job.cache_key()
            != DynamicJob(RECIPE, trace=replace(TRACE, seed=6)).cache_key()
        )
        assert job.cache_key() != job.but(threshold=0.3).cache_key()
        assert job.cache_key() != job.but(replan_cost=0.2).cache_key()

    def test_but_returns_modified_copy(self):
        job = DynamicJob(RECIPE, trace=TRACE)
        other = job.but(heuristic="lp-grow-tree")
        assert other.heuristic == "lp-grow-tree"
        assert other.trace == job.trace
        assert job.heuristic == "grow-tree"

    def test_describe_mentions_trace(self):
        text = DynamicJob(RECIPE, trace=TRACE).describe()
        assert "trace seed 5" in text
        assert "4 windows" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heuristic": "nonsense"},
            {"model": "three-port"},
            {"send_fraction": 0.0},
            {"size": 0},
            {"threshold": 0.0},
            {"replan_cost": 1.0},
            {"policies": ()},
            {"policies": ("static", "wat")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DynamicJob(RECIPE, trace=TRACE, **kwargs)


class TestDynamicResult:
    def test_solve_dynamic_is_lazy(self):
        session = Session()
        result = session.solve_dynamic(DynamicJob(RECIPE, trace=TRACE))
        assert isinstance(result, DynamicResult)
        assert not result.is_materialized()
        assert result.ratios("adaptive")  # forces materialization
        assert result.is_materialized()

    def test_repeated_solves_are_bit_identical(self):
        session = Session()
        job = DynamicJob(RECIPE, trace=TRACE)
        first = session.solve_dynamic(job).deterministic_metrics()
        second = Session().solve_dynamic(job).deterministic_metrics()
        assert first == second

    def test_timeline_access_and_summary(self):
        session = Session()
        result = session.solve_dynamic(DynamicJob(RECIPE, trace=TRACE))
        assert result.replans("static") == 0
        assert result.replans("oracle") == TRACE.horizon
        assert 0.0 < result.mean_ratio("adaptive") <= 1.0 + 1e-9
        assert len(result.times) == TRACE.horizon + 1
        assert result.solve_seconds >= 0.0
        with pytest.raises(ConfigError, match="no timeline"):
            result.timeline("nonsense")
        summary = result.summary()
        for needle in ("static", "oracle", "adaptive", "replans"):
            assert needle in summary

    def test_json_round_trip_rejects_other_library_version(self):
        session = Session()
        result = session.solve_dynamic(DynamicJob(RECIPE, trace=TRACE))
        result.materialize()
        payload = json.loads(result.to_json())
        restored = DynamicResult.from_json(json.dumps(payload), session=Session())
        assert restored.deterministic_metrics() == result.deterministic_metrics()
        payload["version"] = "0.0.0-other"
        with pytest.raises(ConfigError, match="version"):
            DynamicResult.from_dict(payload, session=Session())

    def test_disk_cache_replay_skips_recompute(self, tmp_path, monkeypatch):
        job = DynamicJob(RECIPE, trace=TRACE)
        warm = Session(cache_dir=tmp_path)
        baseline = warm.solve_dynamic(job).deterministic_metrics()

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("cache replay recomputed the campaign")

        monkeypatch.setattr("repro.dynamics.run_dynamic", boom)
        cold = Session(cache_dir=tmp_path)
        replayed = cold.solve_dynamic(job).deterministic_metrics()
        assert replayed == baseline


class TestDynamicCampaign:
    def test_jobs_share_recipe_and_differ_by_trace_seed(self):
        parameters = tiny_parameters(dynamic_seeds=3)
        jobs = dynamic_jobs(parameters)
        assert len(jobs) == 3
        assert len({job.platform_key() for job in jobs}) == 1
        assert len({job.trace.seed for job in jobs}) == 3
        assert len({job.cache_key() for job in jobs}) == 3

    def test_serial_records_deterministic(self, tmp_path):
        parameters = tiny_parameters()
        first = dynamic_ensemble_records(parameters, cache_dir=tmp_path / "a")
        second = dynamic_ensemble_records(parameters, cache_dir=tmp_path / "b")
        assert first == second
        assert all("solve_seconds" not in record for record in first)

    def test_warm_pool_matches_serial(self, tmp_path):
        parameters = tiny_parameters()
        serial = dynamic_ensemble_records(parameters, cache_dir=tmp_path / "s")
        pooled = dynamic_ensemble_records(
            parameters, jobs=2, cache_dir=tmp_path / "p"
        )
        assert pooled == serial

    def test_cache_replay_returns_stored_records(self, tmp_path, monkeypatch):
        parameters = tiny_parameters()
        first = dynamic_ensemble_records(parameters, cache_dir=tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("cache replay recomputed a dynamic record")

        monkeypatch.setattr(
            "repro.experiments.dynamics._solve_dynamic_task", boom
        )
        assert dynamic_ensemble_records(parameters, cache_dir=tmp_path) == first

    def test_interrupted_campaign_writes_manifest_and_resumes(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import dynamics
        from repro.experiments.pipeline import INTERRUPT_MANIFEST

        parameters = tiny_parameters(dynamic_seeds=3)
        reference = dynamic_ensemble_records(
            parameters, cache_dir=tmp_path / "reference"
        )

        # Interrupt right after the first seed's write-through.
        original_put = dynamics._DynamicCache.put
        fired = []

        def put_then_interrupt(self, key, rows):
            original_put(self, key, rows)
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt

        monkeypatch.setattr(dynamics._DynamicCache, "put", put_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            dynamic_ensemble_records(parameters, cache_dir=tmp_path / "campaign")
        manifest = json.loads(
            (tmp_path / "campaign" / INTERRUPT_MANIFEST).read_text()
        )
        assert manifest["reason"] == "KeyboardInterrupt"
        assert manifest["tasks_total"] == 3
        assert manifest["tasks_completed"] == 1
        assert len(manifest["pending_labels"]) == 2
        monkeypatch.undo()

        # The re-run computes only the two pending seeds.
        original_solve = dynamics._solve_dynamic_task
        solved = []

        def counting_solve(payload):
            solved.append(payload)
            return original_solve(payload)

        monkeypatch.setattr(dynamics, "_solve_dynamic_task", counting_solve)
        resumed = dynamic_ensemble_records(
            parameters, cache_dir=tmp_path / "campaign"
        )
        assert len(solved) == 2
        assert resumed == reference

    def test_dynamic_scaling_shape_checks_pass(self):
        figure = dynamic_scaling(tiny_parameters())
        check = check_dynamic_scaling_shape(figure)
        assert check.ok, check.render()
        assert figure.replans["static"] == 0.0
        seeds = tiny_parameters().dynamic_seeds
        for counts in figure.samples_per_point.values():
            assert all(count == seeds for count in counts)
        rendered = figure.render()
        assert "re-plans" in rendered


class TestCliDynamic:
    def test_dynamic_subcommand_prints_policy_table(self, capsys):
        code = cli.main(
            [
                "dynamic",
                "--nodes",
                "10",
                "--density",
                "0.3",
                "--seed",
                "3",
                "--trace-seed",
                "5",
                "--horizon",
                "4",
                "--drift",
                "0.3",
                "--congestion",
                "0.3",
            ],
            session=Session(),
        )
        out = capsys.readouterr().out
        assert code == 0
        for needle in ("static", "oracle", "adaptive"):
            assert needle in out
