"""Unit tests for configuration autotuning."""

import pytest

from repro.coloring.kernels import ExecutionConfig
from repro.coloring.maxmin import maxmin_coloring
from repro.harness.autotune import TuneOutcome, autotune, candidate_configs
from repro.engine.context import RunContext
from repro.harness.suite import build


class TestCandidateConfigs:
    def test_covers_the_techniques(self):
        cands = candidate_configs()
        mappings = {c.mapping for c in cands}
        schedules = {c.schedule for c in cands}
        assert {"thread", "hybrid", "wavefront"} <= mappings
        assert {"grid", "stealing", "dynamic"} <= schedules

    def test_custom_grids(self):
        cands = candidate_configs(thresholds=(16,), chunk_sizes=(512,))
        assert any(c.degree_threshold == 16 for c in cands)
        assert any(c.chunk_size == 512 for c in cands)


class TestAutotune:
    def test_picks_hybrid_for_skewed(self):
        out = autotune(build("rmat", "small"), seed=0)
        assert out.best.mapping == "hybrid"

    def test_picks_thread_family_for_uniform(self):
        out = autotune(build("grid2d", "small"), seed=0)
        assert out.best.mapping == "thread"

    def test_deterministic(self):
        g = build("powerlaw", "small")
        a = autotune(g, seed=3)
        b = autotune(g, seed=3)
        assert a.best == b.best
        assert a.best_cycles == b.best_cycles

    def test_scoreboard_complete_and_sorted(self):
        g = build("road", "tiny")
        out = autotune(g)
        assert len(out.scoreboard) == len(candidate_configs())
        cycles = [c for _, c in out.scoreboard]
        assert cycles == sorted(cycles)

    def test_scoreboard_rows(self):
        out = autotune(build("road", "tiny"))
        rows = out.scoreboard_rows()
        assert sum(1 for r in rows if r["winner"]) >= 1
        assert {"mapping", "schedule", "probe_cycles"} <= set(rows[0])

    def test_custom_candidates(self):
        only = [ExecutionConfig(mapping="wavefront")]
        out = autotune(build("road", "tiny"), candidates=only)
        assert out.best.mapping == "wavefront"

    def test_best_config_actually_good(self):
        # the tuned config's full run beats the worst candidate's full run
        g = build("rmat", "small")
        out = autotune(g, seed=0)
        tuned = maxmin_coloring(g, RunContext().executor(out.best), seed=0)
        worst_cfg = max(out.scoreboard, key=lambda t: t[1])[0]
        worst = maxmin_coloring(g, RunContext().executor(worst_cfg), seed=0)
        assert tuned.total_cycles <= worst.total_cycles

    def test_validation(self):
        g = build("road", "tiny")
        with pytest.raises(ValueError):
            autotune(g, probe_fraction=0.0)
        with pytest.raises(ValueError):
            autotune(g, candidates=[])

    def test_full_probe_fraction(self):
        out = autotune(build("road", "tiny"), probe_fraction=1.0)
        assert isinstance(out, TuneOutcome)
