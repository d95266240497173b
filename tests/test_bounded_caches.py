"""Bounded-cache primitives: LRU eviction, byte budgets, usage counters.

Covers the standalone pieces (``approx_nbytes``, ``BoundedCache``,
``ByteBudget``) and their integration into :class:`LPSolutionCache`, the
:class:`ResultCache` memory tier, and the byte-budgeted
:class:`~repro.api.Session` — the "long-lived processes cannot OOM" layer
of the solve service.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Job, PlatformRecipe, Session
from repro.exceptions import ExperimentError
from repro.lp.solver import LPSolutionCache
from repro.platform.generators.random_graph import generate_random_platform
from repro.runtime import BoundedCache, ByteBudget, ResultCache, approx_nbytes


def _job(seed: int, *, num_nodes: int = 8) -> Job:
    return Job.broadcast(
        PlatformRecipe.of("random", num_nodes=num_nodes, density=0.3, seed=seed),
        source=0,
    )


# --------------------------------------------------------------------------- #
# approx_nbytes
# --------------------------------------------------------------------------- #
class TestApproxNbytes:
    def test_prefers_exact_nbytes_of_arrays(self):
        array = np.zeros(1000, dtype=np.float64)
        estimate = approx_nbytes(array)
        assert estimate >= array.nbytes
        assert estimate <= array.nbytes + 200

    def test_containers_charge_their_elements(self):
        small = approx_nbytes(["x"])
        large = approx_nbytes(["x" * 10_000])
        assert large - small > 9_000

    def test_cycles_terminate(self):
        loop: list = []
        loop.append(loop)
        assert approx_nbytes(loop) > 0

    def test_objects_walk_their_dict(self):
        class Holder:
            def __init__(self) -> None:
                self.payload = np.zeros(500, dtype=np.float64)

        assert approx_nbytes(Holder()) >= 4000


# --------------------------------------------------------------------------- #
# BoundedCache
# --------------------------------------------------------------------------- #
class TestBoundedCache:
    def test_acts_like_a_dict(self):
        cache = BoundedCache()
        cache["a"] = 1
        cache["b"] = 2
        assert cache["a"] == 1
        assert cache.get("missing") is None
        assert "b" in cache and "missing" not in cache
        assert len(cache) == 2
        assert sorted(cache.keys()) == ["a", "b"]
        assert cache.pop("a") == 1
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_getitem_raises_keyerror(self):
        with pytest.raises(KeyError):
            BoundedCache()["nope"]

    def test_entry_bound_evicts_least_recently_used(self):
        cache = BoundedCache(max_entries=2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache["a"] == 1  # refresh: "b" is now the LRU entry
        cache["c"] = 3
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_byte_bound_evicts_by_recorded_size(self):
        cache = BoundedCache(max_bytes=3000, sizeof=lambda value: 1000)
        for name in "abcde":
            cache[name] = name
        assert len(cache) == 3
        assert cache.current_bytes == 3000
        assert cache.evictions == 2
        assert list(cache.keys()) == ["c", "d", "e"]

    def test_oversized_single_entry_is_kept(self):
        cache = BoundedCache(max_bytes=10, sizeof=lambda value: 1000)
        cache["big"] = "x"
        assert "big" in cache  # a cache must hold what it was just given

    def test_overwrite_recharges_bytes(self):
        sizes = {"small": 10, "large": 500}
        cache = BoundedCache(sizeof=lambda value: sizes[value])
        cache["k"] = "small"
        cache["k"] = "large"
        assert cache.current_bytes == 500
        assert len(cache) == 1

    def test_counters_and_stats(self):
        cache = BoundedCache(max_entries=8, name="test")
        cache["a"] = 1
        cache.get("a")
        cache.get("gone")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["evictions"] == 0
        assert stats["max_entries"] == 8
        assert stats["bytes"] > 0

    def test_contains_does_not_count_or_touch(self):
        cache = BoundedCache(max_entries=2)
        cache["a"] = 1
        cache["b"] = 2
        assert "a" in cache  # membership must not refresh recency
        cache["c"] = 3
        assert "a" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_setdefault(self):
        cache = BoundedCache()
        assert cache.setdefault("k", 5) == 5
        assert cache.setdefault("k", 9) == 5

    def test_rejects_non_positive_bounds(self):
        with pytest.raises(ExperimentError):
            BoundedCache(max_entries=0)
        with pytest.raises(ExperimentError):
            BoundedCache(max_bytes=-1)


# --------------------------------------------------------------------------- #
# ByteBudget
# --------------------------------------------------------------------------- #
class TestByteBudget:
    def test_global_lru_eviction_across_members(self):
        budget = ByteBudget(3000)
        first = BoundedCache(budget=budget, sizeof=lambda value: 1000, name="one")
        second = BoundedCache(budget=budget, sizeof=lambda value: 1000, name="two")
        first["a"] = 1
        second["b"] = 2
        first["c"] = 3
        # 3000/3000 charged; next insert must evict the *globally* oldest
        # entry — "a" in the first cache, not anything in the second.
        second["d"] = 4
        assert "a" not in first
        assert "b" in second and "c" in first and "d" in second
        assert budget.total_bytes == 3000
        assert budget.total_evictions == 1

    def test_touch_refreshes_against_global_eviction(self):
        budget = ByteBudget(2000)
        first = BoundedCache(budget=budget, sizeof=lambda value: 1000)
        second = BoundedCache(budget=budget, sizeof=lambda value: 1000)
        first["a"] = 1
        second["b"] = 2
        assert first.get("a") == 1  # "b" becomes the global LRU
        first["c"] = 3
        assert "b" not in second
        assert "a" in first

    def test_unbounded_budget_only_aggregates(self):
        budget = ByteBudget()
        cache = BoundedCache(budget=budget, sizeof=lambda value: 7)
        cache["a"] = 1
        assert budget.total_bytes == 7
        assert budget.total_evictions == 0

    def test_rejects_non_positive_ceiling(self):
        with pytest.raises(ExperimentError):
            ByteBudget(0)


# --------------------------------------------------------------------------- #
# LPSolutionCache bounds
# --------------------------------------------------------------------------- #
class TestBoundedLPSolutionCache:
    def test_eviction_releases_platforms_and_recomputes(self):
        cache = LPSolutionCache(max_entries=2)
        platforms = [
            generate_random_platform(num_nodes=6, density=0.4, seed=seed)
            for seed in range(3)
        ]
        solutions = [cache.solve(platform, 0) for platform in platforms]
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["evictions"] == 1
        # The evicted platform re-solves to the same throughput.
        again = cache.solve(platforms[0], 0)
        assert again.throughput == pytest.approx(solutions[0].throughput)

    def test_hit_does_not_resolve(self):
        cache = LPSolutionCache()
        platform = generate_random_platform(num_nodes=6, density=0.4, seed=1)
        first = cache.solve(platform, 0)
        second = cache.solve(platform, 0)
        assert first is second
        assert cache.stats()["hits"] == 1


# --------------------------------------------------------------------------- #
# ResultCache memory-tier bounds
# --------------------------------------------------------------------------- #
class TestBoundedResultCacheMemory:
    def test_memory_tier_evicts(self):
        cache = ResultCache(max_memory_entries=2)
        for i in range(4):
            cache.put(f"key-{i}", [{"i": i}])
        assert cache.get("key-0") is None
        assert cache.get("key-3") == [{"i": 3}]
        assert cache.memory_stats()["evictions"] == 2

    def test_plain_dict_memory_still_works(self):
        shared: dict = {}
        cache = ResultCache(memory=shared)
        cache.put("k", [{"v": 1}])
        assert cache.get("k") == [{"v": 1}]
        assert cache.memory_stats() == {"entries": 1}

    def test_bounds_conflict_with_explicit_memory(self):
        with pytest.raises(ExperimentError):
            ResultCache(memory={}, max_memory_entries=4)

    def test_disk_tier_backstops_memory_eviction(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=1)
        cache.put("first", [{"v": 1}])
        cache.put("second", [{"v": 2}])  # evicts "first" from memory
        assert cache.memory_stats()["entries"] == 1
        assert cache.get("first") == [{"v": 1}]  # re-read from disk


# --------------------------------------------------------------------------- #
# Simulation cache charge: closed form == the generic walk
# --------------------------------------------------------------------------- #
class TestSimulationNbytes:
    @staticmethod
    def _simulations():
        from repro.collectives import CollectiveSpec
        from repro.core.binomial import BinomialTreeHeuristic
        from repro.core.grow_tree import GrowingMinimumOutDegreeTree
        from repro.simulation.collective import simulate_collective

        platform = generate_random_platform(9, 0.35, seed=4)
        direct = GrowingMinimumOutDegreeTree().build(platform, 0)
        routed = BinomialTreeHeuristic().build(platform, 0)
        broadcast = CollectiveSpec.broadcast(0)
        scatter = CollectiveSpec("scatter", 0)

        def run(tree, spec, **options):
            options.setdefault("record_trace", False)
            return simulate_collective(tree, spec, 30, **options)

        return {
            "broadcast": run(direct, broadcast),
            "broadcast-routed": run(routed, broadcast),
            "broadcast-greedy": run(direct, broadcast, policy="greedy"),
            "scatter": run(direct, scatter),
            "multi-port": run(direct, broadcast, model="multi-port"),
            "multi-port-scatter": run(direct, scatter, model="multi-port"),
            "traced": run(direct, broadcast, record_trace=True),
            "traced-routed": run(routed, broadcast, record_trace=True),
        }

    def test_closed_form_equals_the_walk(self):
        from repro.api.session import _simulation_nbytes

        simulations = self._simulations()
        assert len(simulations["traced"].trace) > 0
        for name, sim in simulations.items():
            assert _simulation_nbytes(sim) == approx_nbytes(sim), name

    def test_session_charges_match_the_walk(self):
        from repro.api.session import _simulation_nbytes

        # sys.getsizeof of an instance __dict__ can drift as later instances
        # of the class appear, so compare both charges at insert time.
        session = Session()
        assert session._simulations._sizeof is _simulation_nbytes
        charges: list[tuple[int, int]] = []

        def both(sim):
            charges.append((_simulation_nbytes(sim), approx_nbytes(sim)))
            return charges[-1][0]

        session._simulations._sizeof = both
        recipe = PlatformRecipe.of("random", num_nodes=9, density=0.35, seed=4)
        jobs = [
            Job.of_collective(
                recipe, kind, 0, None, heuristic=heuristic, model=model,
                simulate=True, num_slices=20,
            )
            for kind in ("broadcast", "scatter")
            for heuristic in ("grow-tree", "binomial")
            for model in ("one-port", "multi-port")
        ]
        session.solve_many(jobs, on_error="collect")
        assert len(charges) >= 6
        assert all(closed == walk for closed, walk in charges), charges
        assert session._simulations.stats()["bytes"] == sum(c for c, _ in charges)


# --------------------------------------------------------------------------- #
# Byte-budgeted sessions
# --------------------------------------------------------------------------- #
class TestBoundedSession:
    def test_session_stays_under_byte_budget_with_evictions(self):
        budget_bytes = 96 * 1024
        session = Session(max_cache_bytes=budget_bytes)
        for seed in range(6):
            session.solve(_job(seed, num_nodes=10)).materialize()
        stats = session.cache_stats()
        assert stats["total"]["max_bytes"] == budget_bytes
        assert stats["total"]["bytes"] <= budget_bytes
        assert stats["total"]["evictions"] > 0

    def test_eviction_is_transparent_to_results(self):
        tight = Session(max_cache_bytes=64 * 1024)
        loose = Session()
        jobs = [_job(seed) for seed in range(4)]
        tight_metrics = [
            tight.solve(job).materialize().deterministic_metrics() for job in jobs
        ]
        # Re-solve the first job after later jobs likely evicted its memos.
        replay = tight.solve(jobs[0]).materialize().deterministic_metrics()
        reference = [
            loose.solve(job).materialize().deterministic_metrics() for job in jobs
        ]
        assert tight_metrics == reference
        assert replay == reference[0]

    def test_cache_stats_exposes_counters(self):
        session = Session(max_cache_entries=64)
        result = session.solve(_job(1))
        result.materialize()
        _ = result.lp_solution
        _ = result.lp_solution  # repeated full-solution access: an LP hit
        stats = session.cache_stats()
        for block in ("platforms", "trees", "lp_solutions", "results"):
            assert stats[block]["entries"] >= 0
            assert "hits" in stats[block] and "evictions" in stats[block]
        assert stats["lp_solutions"]["hits"] > 0
        assert stats["total"]["evictions"] == 0

    def test_entry_bound_per_memo_cache(self):
        session = Session(max_cache_entries=2)
        for seed in range(4):
            session.solve(_job(seed)).materialize()
        stats = session.cache_stats()
        assert stats["platforms"]["entries"] <= 2
        assert stats["trees"]["entries"] <= 2
        assert stats["lp_solutions"]["entries"] <= 2
