"""Tests for the ``repro.api`` facade: Jobs, Sessions, lazy Results."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.api import (
    JOB_FORMAT_VERSION,
    Job,
    PlatformRecipe,
    Result,
    Session,
)
from repro.collectives import CollectiveKind, CollectiveSpec
from repro.exceptions import (
    ConfigError,
    ExperimentError,
    PlatformError,
    ReproError,
)
from repro.lp.solver import solve_collective_lp
from repro.platform.generators.random_graph import generate_random_platform

RECIPE = PlatformRecipe.of("random", num_nodes=10, density=0.3, seed=3)


@pytest.fixture
def count_lp_solves(monkeypatch):
    """Count every actual LP solve (cache hits do not reach the solver)."""
    calls: list[tuple] = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_collective_lp(*args, **kwargs)

    monkeypatch.setattr("repro.lp.solver.solve_collective_lp", counting)
    return calls


class TestJob:
    def test_json_round_trip_recipe(self):
        job = Job.broadcast(RECIPE, source=0, heuristic="lp-prune", simulate=True)
        restored = Job.from_json(job.to_json())
        assert restored == job
        assert restored.cache_key() == job.cache_key()
        assert isinstance(restored.platform, PlatformRecipe)
        assert restored.platform.params == RECIPE.params

    def test_json_round_trip_inline_platform(self):
        platform = generate_random_platform(num_nodes=8, density=0.4, seed=1)
        job = Job.broadcast(platform, source=0)
        restored = Job.from_json(job.to_json())
        assert restored == job
        assert restored.platform.name == platform.name
        assert restored.platform.num_nodes == platform.num_nodes

    @pytest.mark.parametrize(
        "kind", ["broadcast", "multicast", "scatter", "reduce", "gather"]
    )
    def test_json_round_trip_every_collective_kind(self, kind):
        targets = (1, 3, 5) if kind == "multicast" else None
        job = Job.of_collective(RECIPE, kind, source=0, targets=targets)
        restored = Job.from_json(job.to_json())
        assert restored == job
        assert restored.collective.kind is CollectiveKind(kind)
        assert restored.collective.targets == targets

    def test_payload_is_version_stamped(self):
        payload = Job.broadcast(RECIPE).canonical_payload()
        assert payload["format_version"] == JOB_FORMAT_VERSION
        with pytest.raises(ConfigError):
            Job.from_dict({**payload, "format_version": 999})

    def test_identity_ignores_platform_representation(self):
        # Equal descriptions are equal jobs whichever process built them.
        a = Job.broadcast(RECIPE, heuristic="binomial")
        b = Job.broadcast(
            PlatformRecipe.of("random", num_nodes=10, density=0.3, seed=3),
            heuristic="binomial",
        )
        assert a == b and hash(a) == hash(b)
        assert a != a.but(heuristic="grow-tree")
        assert a.tree_key() == a.but(num_slices=99, simulate=True).tree_key()

    def test_canonical_payload_copy_is_independent(self):
        """Mutating a returned payload must not corrupt the job's identity."""
        platform = generate_random_platform(num_nodes=8, density=0.4, seed=1)
        job = Job.broadcast(platform)
        key = job.cache_key()
        derived = job.canonical_payload()
        derived["collective"]["source"] = 5
        derived["platform"]["inline"]["name"] = "tampered"
        assert job.cache_key() == key
        assert Job.from_json(job.to_json()) == job

    def test_recipe_is_hashable_and_immutable(self):
        import pickle

        twin = PlatformRecipe.of("random", num_nodes=10, density=0.3, seed=3)
        assert hash(RECIPE) == hash(twin)
        assert {RECIPE, twin} == {RECIPE}
        with pytest.raises(TypeError):
            RECIPE.params["seed"] = 99
        assert pickle.loads(pickle.dumps(RECIPE)) == RECIPE

    def test_validation(self):
        with pytest.raises(ConfigError):
            Job.broadcast(RECIPE, model="two-port")
        with pytest.raises(ConfigError):
            Job.broadcast(RECIPE, num_slices=0)
        with pytest.raises(ConfigError):
            Job.broadcast(RECIPE, send_fraction=0.0)
        with pytest.raises(ConfigError):
            Job("not-a-platform", CollectiveSpec.broadcast(0))
        with pytest.raises(ConfigError):
            Job(RECIPE, "not-a-spec")
        with pytest.raises(ConfigError):
            PlatformRecipe.of("no-such-generator", num_nodes=4)


class TestSession:
    def test_second_solve_does_no_lp_resolve(self, count_lp_solves):
        session = Session()
        job = Job.broadcast(RECIPE, heuristic="lp-grow-tree")
        first = session.solve(job)
        assert first.relative_performance <= 1.0 + 1e-9
        assert len(count_lp_solves) == 1
        # Same job again (fresh object): nothing reaches the solver.
        again = session.solve(Job.from_json(job.to_json()))
        assert again.materialize().lp_bound == first.lp_bound
        assert len(count_lp_solves) == 1

    def test_lp_shared_across_solve_solve_many_and_cli(self, count_lp_solves, capsys):
        """One LP solve serves solve(), solve_many() and the CLI path."""
        session = Session()
        args = cli.build_parser().parse_args(
            ["tree", "--nodes", "10", "--density", "0.3", "--seed", "3", "--compare-lp"]
        )
        job = cli.job_from_args(args)
        session.solve(job).materialize()
        assert len(count_lp_solves) == 1
        session.solve_many([job, job.but(heuristic="binomial")])
        assert len(count_lp_solves) == 1
        code = cli.main(
            ["tree", "--nodes", "10", "--density", "0.3", "--seed", "3", "--compare-lp"],
            session=session,
        )
        assert code == 0
        assert "relative performance" in capsys.readouterr().out
        assert len(count_lp_solves) == 1

    def test_solve_many_matches_sequential_solve(self):
        jobs = [
            Job.broadcast(RECIPE, heuristic=name, simulate=True, num_slices=20)
            for name in ("grow-tree", "prune-degree", "binomial", "lp-prune")
        ]
        batched = Session().solve_many(jobs)
        sequential = [Session().solve(job).materialize() for job in jobs]
        assert [r.deterministic_metrics() for r in batched] == [
            r.deterministic_metrics() for r in sequential
        ]

    def test_solve_many_process_executor_matches_serial(self):
        jobs = [
            Job.broadcast(RECIPE, heuristic=name)
            for name in ("grow-tree", "binomial")
        ]
        with Session(jobs=2) as session:
            parallel = session.solve_many(jobs)
        serial = Session().solve_many(jobs)
        assert [r.deterministic_metrics() for r in parallel] == [
            r.deterministic_metrics() for r in serial
        ]

    def test_solve_many_warm_pool_matches_serial(self):
        jobs = [
            Job.broadcast(RECIPE, heuristic=name)
            for name in ("grow-tree", "binomial")
        ]
        with Session(jobs=2, backend="warm-pool") as session:
            warm = session.solve_many(jobs)
        serial = Session().solve_many(jobs)
        assert [r.deterministic_metrics() for r in warm] == [
            r.deterministic_metrics() for r in serial
        ]

    def test_solve_many_dispatches_duplicate_jobs_once(self):
        """Equal jobs in one batch ship to the executor exactly once."""

        class RecordingExecutor:
            jobs = 2

            def __init__(self):
                self.batches = []

            def map(self, function, tasks):
                self.batches.append(list(tasks))
                return [function(task) for task in tasks]

        executor = RecordingExecutor()
        session = Session(executor=executor)
        job = Job.broadcast(RECIPE)
        results = session.solve_many([job, Job.from_json(job.to_json()), job])
        assert len(executor.batches) == 1 and len(executor.batches[0]) == 1
        assert all(r.is_materialized() for r in results)
        metrics = [r.deterministic_metrics() for r in results]
        assert metrics[0] == metrics[1] == metrics[2]

    def test_jobs_on_one_platform_share_its_instance(self):
        """Recipes resolve once per session; inline platforms pass through."""
        session = Session()
        a = session.solve(Job.broadcast(RECIPE))
        b = session.solve(Job.broadcast(RECIPE, heuristic="binomial"))
        assert a.platform is b.platform
        inline = generate_random_platform(num_nodes=8, density=0.4, seed=2)
        c = session.solve(Job.broadcast(inline))
        assert c.platform is inline

    def test_solve_many_returns_results_in_input_job_order(self):
        """Fan-out order survives dedupe, platform grouping and batching.

        The batch mixes platforms, models, duplicates and simulate flags in
        a deliberately shuffled order; ``results[i]`` must still answer
        ``jobs[i]`` exactly, and each must match its own sequential solve.
        """
        other = PlatformRecipe.of("random", num_nodes=8, density=0.4, seed=11)
        jobs = [
            Job.broadcast(other, heuristic="binomial"),
            Job.broadcast(RECIPE, heuristic="grow-tree", simulate=True, num_slices=20),
            Job.broadcast(RECIPE, heuristic="multiport-grow-tree", model="multi-port"),
            Job.broadcast(other, heuristic="grow-tree", simulate=True, num_slices=20),
            Job.broadcast(RECIPE, heuristic="grow-tree", simulate=True, num_slices=20),
            Job.broadcast(RECIPE, heuristic="prune-degree"),
            Job.broadcast(other, heuristic="binomial"),
        ]
        results = Session().solve_many(jobs)
        assert len(results) == len(jobs)
        assert [r.job for r in results] == jobs
        sequential = [Session().solve(job).materialize() for job in jobs]
        assert [r.deterministic_metrics() for r in results] == [
            r.deterministic_metrics() for r in sequential
        ]

    def test_solve_many_ensemble_batches_match_sequential(self):
        """Jobs batched into one ensemble sweep == fresh per-job sessions."""
        recipes = [
            PlatformRecipe.of("random", num_nodes=n, density=0.4, seed=seed)
            for n, seed in ((8, 21), (12, 22), (10, 23))
        ]
        jobs = [
            Job.broadcast(recipe, heuristic=heuristic, model=model, simulate=True,
                          num_slices=25)
            for recipe in recipes
            for heuristic, model in (
                ("grow-tree", "one-port"),
                ("binomial", "one-port"),
                ("multiport-grow-tree", "multi-port"),
            )
        ]
        batched = Session().solve_many(jobs)
        sequential = [Session().solve(job).materialize() for job in jobs]
        assert [r.deterministic_metrics() for r in batched] == [
            r.deterministic_metrics() for r in sequential
        ]

    def test_cache_stats_accounts_entries_and_bytes(self):
        session = Session()
        empty = session.cache_stats()
        assert empty["platforms"]["entries"] == 0
        assert empty["results"]["entries"] == 0
        jobs = [
            Job.broadcast(RECIPE, heuristic=name, simulate=True, num_slices=15)
            for name in ("grow-tree", "binomial")
        ]
        session.solve_many(jobs)
        stats = session.cache_stats()
        assert stats["platforms"]["entries"] == 1
        assert stats["platforms"]["compiled_bytes"] > 0
        assert stats["trees"]["entries"] == 2
        assert stats["trees"]["compiled_bytes"] > 0
        assert stats["lp_solutions"]["entries"] >= 1
        assert stats["results"]["entries"] == 2
        assert stats["results"]["approx_bytes"] > 0
        assert stats["makespans"]["entries"] == 2
        assert stats["simulations"]["entries"] == 2
        session.clear()
        cleared = session.cache_stats()
        assert cleared["platforms"]["entries"] == 0
        assert cleared["results"]["entries"] == 0

    def test_disk_cache_replays_without_computing(self, tmp_path, count_lp_solves):
        job = Job.broadcast(RECIPE, simulate=True, num_slices=15)
        warm = Session(cache_dir=tmp_path).solve_many([job])[0]
        solves = len(count_lp_solves)
        assert solves == 1
        replayed = Session(cache_dir=tmp_path).solve(job)
        assert replayed.is_materialized()
        assert replayed.deterministic_metrics() == warm.deterministic_metrics()
        assert len(count_lp_solves) == solves

    def test_collective_jobs_end_to_end(self):
        session = Session()
        job = Job.of_collective(
            RECIPE, "multicast", source=0, targets=(1, 3, 5), simulate=True, num_slices=20
        )
        result = session.solve(job)
        assert result.throughput <= result.lp_bound + 1e-9
        assert {1, 3, 5} <= set(result.tree.nodes)
        assert result.simulated_throughput == pytest.approx(
            result.throughput, rel=1e-6
        )

    def test_invalid_jobs_parameter(self):
        with pytest.raises(ConfigError):
            Session(jobs=0)

    def test_mutating_inline_platform_invalidates_session_caches(self, count_lp_solves):
        """A mutated platform must re-solve, not replay the stale LP bound."""
        from repro.platform.generators.structured import generate_complete_platform

        platform = generate_complete_platform(6, seed=11)
        session = Session()
        job = Job.broadcast(platform)
        key_before = job.cache_key()
        session.solve(job).materialize()
        assert len(count_lp_solves) == 1
        platform.remove_link(1, 2)
        # Mutation bumps the platform epoch: job identity and every session
        # cache key change, so nothing stale can be replayed.
        assert job.cache_key() != key_before
        second = session.solve(job).materialize()
        assert len(count_lp_solves) == 2
        reference = solve_collective_lp(platform, job.collective)
        assert second.lp_bound == reference.throughput

    def test_restored_premutation_job_gets_faithful_platform(self):
        """A saved job must not resolve to an instance mutated after saving."""
        platform = generate_random_platform(num_nodes=8, density=0.4, seed=9)
        session = Session()
        job = Job.broadcast(platform)
        saved = job.to_json()
        session.solve(job).materialize()
        link = next(l for l in platform.links if 0 not in (l.source, l.target))
        platform.remove_link(link.source, link.target)
        restored = session.solve(Job.from_json(saved))
        assert restored.platform is not platform
        assert len(restored.platform.links) == len(platform.links) + 1

    def test_makespan_shared_across_simulate_twins(self, monkeypatch):
        """The simulate flag must not split the makespan/simulation caches."""
        from repro.analysis.makespan import pipelined_makespan as real

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.api.session.pipelined_makespan", counting)
        session = Session()
        job = Job.broadcast(RECIPE, num_slices=20)
        first = session.solve(job).makespan
        second = session.solve(job.but(simulate=True)).makespan
        assert first == second
        assert len(calls) == 1

    def test_replay_does_not_rewrite_disk_entries(self, tmp_path, monkeypatch):
        """Replaying cached work must not churn the on-disk entries."""
        session = Session(cache_dir=tmp_path)
        job = Job.broadcast(RECIPE)
        session.solve_many([job])
        writes = []
        monkeypatch.setattr(
            session.results,
            "_write_disk",
            lambda *args, **kwargs: writes.append(args),
        )
        session.solve_many([job])
        session.solve(job).materialize()
        assert writes == []
        # A fresh session attaching the entry from disk must not rewrite it.
        fresh = Session(cache_dir=tmp_path)
        monkeypatch.setattr(
            fresh.results,
            "_write_disk",
            lambda *args, **kwargs: writes.append(args),
        )
        fresh.solve_many([job])
        fresh.solve(job).materialize()
        assert writes == []

    def test_lp_seconds_shared_across_jobs_on_one_platform(self):
        """Every record of a platform reports the real LP solve time."""
        session = Session()
        first = session.solve(Job.broadcast(RECIPE, heuristic="grow-tree")).materialize()
        second = session.solve(Job.broadcast(RECIPE, heuristic="binomial")).materialize()
        assert first.lp_seconds > 0
        assert second.lp_seconds == first.lp_seconds

    def test_single_solve_persists_to_disk_cache(self, tmp_path, count_lp_solves):
        """solve().materialize() must honour cache_dir like solve_many does."""
        job = Job.broadcast(RECIPE, num_slices=15)
        warm = Session(cache_dir=tmp_path).solve(job).materialize()
        assert len(count_lp_solves) == 1
        replayed = Session(cache_dir=tmp_path).solve(job)
        assert replayed.is_materialized()
        assert replayed.deterministic_metrics() == warm.deterministic_metrics()
        assert len(count_lp_solves) == 1


class TestResult:
    def test_json_round_trip_lossless_and_version_stamped(self):
        session = Session()
        job = Job.broadcast(RECIPE, simulate=True, num_slices=20)
        result = session.solve(job)
        data = result.to_dict()
        assert data["format_version"] == 1
        assert data["version"]
        restored = Result.from_json(result.to_json(), session=Session())
        assert restored.job == job
        assert restored.is_materialized()
        assert restored.metrics() == result.metrics()
        with pytest.raises(ConfigError):
            Result.from_dict({**data, "format_version": 999}, session=Session())
        with pytest.raises(ConfigError):
            # Metrics from another library version must not be adopted.
            Result.from_dict({**data, "version": "0.0.1"}, session=Session())

    def test_lazy_no_work_until_access(self, count_lp_solves):
        session = Session()
        result = session.solve(Job.broadcast(RECIPE))
        assert len(count_lp_solves) == 0
        assert result.metrics() == {}
        _ = result.lp_bound
        assert len(count_lp_solves) == 1

    def test_report_and_makespan_views(self):
        session = Session()
        result = session.solve(Job.broadcast(RECIPE, num_slices=25))
        assert result.report.bottleneck in result.platform.nodes
        assert result.makespan == pytest.approx(result.makespan_report.makespan)
        assert result.makespan >= 25 / result.throughput - 1e-9


class TestExceptionHierarchy:
    def test_platform_value_errors_are_repro_errors(self):
        from repro.platform.costs import AffineCost
        from repro.platform.link import Link
        from repro.platform.node import ProcessorNode

        for trigger in (
            lambda: AffineCost(startup=-1.0),
            lambda: AffineCost.from_bandwidth(0.0),
            lambda: Link.with_transfer_time(0, 0, 1.0),
            lambda: ProcessorNode(name=0, send_overhead=-1.0),
        ):
            with pytest.raises(ReproError):
                trigger()
            with pytest.raises(PlatformError):
                trigger()

    def test_config_error_is_experiment_error(self):
        from repro.experiments.config import scaled_parameters

        with pytest.raises(ConfigError):
            scaled_parameters(0.0)
        with pytest.raises(ExperimentError):
            scaled_parameters(-1.0)
        assert issubclass(ConfigError, ExperimentError)
        assert issubclass(ConfigError, ReproError)
