"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tree_defaults(self):
        args = build_parser().parse_args(["tree"])
        assert args.heuristic == "grow-tree"
        assert args.nodes == 20
        assert args.model == "one-port"

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tree", "--heuristic", "nope"])

    def test_experiment_artefact_choices(self):
        args = build_parser().parse_args(["experiment", "--artefact", "table3"])
        assert args.artefact == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--artefact", "fig9"])

    def test_serve_backend_choices_follow_the_registry(self):
        from repro.runtime import available_backends

        for backend in available_backends():
            args = build_parser().parse_args(["serve", "--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--backend", "process"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_tree_command(self, capsys):
        code = main(
            ["tree", "--nodes", "10", "--density", "0.3", "--seed", "1",
             "--compare-lp", "--show-tree"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "relative performance" in out
        assert "grow-tree" in out

    def test_tree_command_multiport(self, capsys):
        code = main(
            ["tree", "--nodes", "10", "--density", "0.3", "--seed", "1",
             "--heuristic", "multiport-grow-tree", "--model", "multi-port"]
        )
        assert code == 0
        assert "multi-port" in capsys.readouterr().out

    def test_lp_command(self, capsys):
        code = main(["lp", "--nodes", "10", "--density", "0.3", "--seed", "2", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SSB optimum" in out
        assert "n_uv" in out

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "--nodes", "10", "--density", "0.3", "--seed", "3", "--slices", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated throughput" in out

    def test_tiers_platform_option(self, capsys):
        code = main(["tree", "--tiers", "30", "--seed", "4"])
        assert code == 0
        assert "tiers-30" in capsys.readouterr().out

    def test_experiment_command_tiny_scale(self, capsys):
        # Keep the ensemble tiny: scale 0.1 -> 1 configuration per point, but
        # the grid still spans 5 sizes x 5 densities; use table3 with the
        # smaller Tiers ensemble instead? table3 at scale 0.1 solves 20 LPs.
        # fig4a at scale 0.1 solves 25 LPs of up to 50 nodes - too slow for a
        # unit test, so only exercise the parser-to-handler wiring here via
        # a monkeypatched ensemble in test_experiments.py.  This test checks
        # the command exists and rejects invalid scales quickly.
        with pytest.raises(Exception):
            main(["experiment", "--artefact", "fig4a", "--scale", "0"])
