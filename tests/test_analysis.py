"""Tests for the measurement harness, theory formulas, and reporting."""

import math

import numpy as np
import pytest

from repro.analysis.fpr import measure_fpr, measure_fpr_checked
from repro.analysis.harness import (
    FILTERS,
    HEURISTIC_FILTERS,
    ROBUST_FILTERS,
    FilterConfig,
    build_filter,
    run_experiment,
    run_grid,
)
from repro.analysis.report import format_fpr, format_series, format_speed_table, format_table
from repro.analysis.theory import (
    bucketing_bits,
    goswami_bits,
    grafite_bits,
    grafite_fpr_bound,
    lower_bound_bits,
    rosetta_bits,
    snarf_bits,
    surf_bits,
    table1,
)
from repro.analysis.timing import time_construction, time_queries
from repro.core.grafite import Grafite
from repro.errors import InvalidParameterError
from repro.workloads.datasets import uniform
from repro.workloads.queries import nonempty_queries, uncorrelated_queries

UNIVERSE = 2**40
KEYS = uniform(1500, universe=UNIVERSE, seed=0)
SAMPLE = uncorrelated_queries(32, 16, UNIVERSE, keys=KEYS, seed=9)


class TestFprMeasurement:
    def test_empty_queries_give_fpr(self):
        g = Grafite(KEYS, UNIVERSE, eps=0.05, max_range_size=16, seed=1)
        queries = uncorrelated_queries(500, 16, UNIVERSE, keys=KEYS, seed=2)
        result = measure_fpr(g, queries)
        assert result.trials == 500
        assert 0 <= result.fpr <= 0.05 * 3 + 0.01

    def test_checked_detects_true_positives(self):
        g = Grafite(KEYS, UNIVERSE, eps=0.01, max_range_size=16, seed=1)
        queries = nonempty_queries(KEYS, 100, 16, UNIVERSE, seed=3)
        result = measure_fpr_checked(g, queries, KEYS)
        assert result.true_positives == 100
        assert result.false_negatives == 0

    def test_checked_counts_fp_only_on_empty(self):
        g = Grafite(KEYS, UNIVERSE, eps=0.5, max_range_size=4, seed=0)
        empty = uncorrelated_queries(50, 4, UNIVERSE, keys=KEYS, seed=4)
        full = nonempty_queries(KEYS, 50, 4, UNIVERSE, seed=5)
        result = measure_fpr_checked(g, empty + full, KEYS)
        assert result.trials == 100
        assert result.true_positives == 50


class TestTiming:
    def test_query_timing_positive(self):
        g = Grafite(KEYS, UNIVERSE, eps=0.1, seed=0)
        t = time_queries(g, SAMPLE)
        assert t.ns_per_op > 0
        assert t.operations == len(SAMPLE)

    def test_construction_timing(self):
        filt, t = time_construction(
            lambda: Grafite(KEYS, UNIVERSE, eps=0.1, seed=0), repeats=2
        )
        assert filt.key_count == KEYS.size
        assert t.total_seconds > 0


class TestHarness:
    def test_registry_covers_paper_figures(self):
        for name in ROBUST_FILTERS + HEURISTIC_FILTERS:
            assert name in FILTERS

    def test_build_filter_unknown(self):
        cfg = FilterConfig(KEYS, UNIVERSE, 16, 16)
        with pytest.raises(InvalidParameterError):
            build_filter("Nope", cfg)

    @pytest.mark.parametrize("name", sorted(FILTERS))
    def test_every_registered_filter_builds_and_answers(self, name):
        cfg = FilterConfig(
            KEYS, UNIVERSE, bits_per_key=16, max_range_size=16,
            sample_queries=SAMPLE, seed=0,
        )
        filt = build_filter(name, cfg)
        assert filt.key_count == KEYS.size
        for key in KEYS[:20]:
            key = int(key)
            hi = min(UNIVERSE - 1, key + 15)
            assert filt.may_contain_range(key, hi), name

    def test_run_experiment_row(self):
        cfg = FilterConfig(KEYS, UNIVERSE, 14, 16, sample_queries=SAMPLE)
        queries = uncorrelated_queries(100, 16, UNIVERSE, keys=KEYS, seed=6)
        row = run_experiment("Grafite", cfg, queries, dataset="uniform", workload="uncorrelated")
        assert row.filter_name == "Grafite"
        assert row.key_count == KEYS.size
        assert row.query_ns > 0
        assert row.build_ns_per_key > 0
        assert 0 <= row.fpr <= 1
        assert row.bits_per_key_actual > 0

    def test_run_grid(self):
        cfg = FilterConfig(KEYS, UNIVERSE, 16, 16, sample_queries=SAMPLE)
        queries = uncorrelated_queries(50, 16, UNIVERSE, keys=KEYS, seed=7)
        rows = run_grid(["Grafite", "Bucketing"], cfg, queries)
        assert [r.filter_name for r in rows] == ["Grafite", "Bucketing"]


class TestTheory:
    def test_grafite_below_goswami_below_trivial_gap(self):
        n, L, eps = 10**6, 2**10, 0.01
        assert grafite_bits(n, L, eps) < goswami_bits(n, L, eps)
        assert grafite_bits(n, L, eps) >= lower_bound_bits(n, L, eps) - n

    def test_rosetta_space_worse_beyond_crossover(self):
        n, L, eps = 10**6, 2**10, 0.01
        # L >= 2^3.36 eps here, so Rosetta's 1.44x loses (paper §5).
        assert rosetta_bits(n, L, eps) > grafite_bits(n, L, eps)

    def test_surf_min_ten_bits_per_key(self):
        assert surf_bits(1000, 0, 0) == 10_000

    def test_snarf_formula(self):
        assert snarf_bits(1000, 64) == pytest.approx(1000 * 6 + 2400)

    def test_bucketing_formula(self):
        assert bucketing_bits(100, 2**20, 64) == pytest.approx(
            100 * math.log2(2**20 / (100 * 64)) + 200
        )

    def test_grafite_fpr_bound_corollary(self):
        assert grafite_fpr_bound(32, 12) == pytest.approx(32 / 2**10)
        assert grafite_fpr_bound(2**30, 10) == 1.0
        assert grafite_fpr_bound(1, 2) == 1.0

    def test_table1_rows(self):
        rows = table1(10**5, 2**40, 2**10, 0.01, surf_internal_nodes=5000, bucketing_t=10**4, bucketing_s=64)
        names = [r.name for r in rows]
        for expected in ("Grafite", "Rosetta", "SuRF", "SNARF", "Bucketing", "Lower bound"):
            assert expected in names
        grafite_row = next(r for r in rows if r.name == "Grafite")
        lower_row = next(r for r in rows if r.name == "Lower bound")
        assert grafite_row.space_bits >= lower_row.space_bits - 10**5

    def test_table1_unknown_cells_stay_none(self):
        rows = table1(10**5, 2**40, 2**10, 0.01)
        proteus = next(r for r in rows if r.name == "Proteus")
        assert proteus.space_bits is None

    @pytest.mark.parametrize(
        "n, L, eps",
        [
            (10**5, 2**10, 0.0),
            (10**5, 2**10, 1.0),
            (10**5, 2**10, 1.5),
            (10**5, 2**10, -0.5),
            (10**5, 2**10, float("nan")),
            (0, 2**10, 0.01),
            (10**5, 0, 0.01),
        ],
        ids=["eps=0", "eps=1", "eps=1.5", "eps=-0.5", "eps=nan", "n=0", "L=0"],
    )
    def test_table1_rejects_inputs_outside_its_domain(self, n, L, eps):
        with pytest.raises(InvalidParameterError):
            table1(n, 2**40, L, eps)

    @pytest.mark.parametrize("u", [1, 0, 2**-3])
    def test_table1_rejects_a_universe_below_two(self, u):
        with pytest.raises(InvalidParameterError):
            table1(10**5, u, 2**10, 0.01)

    def test_table1_domain_edges_evaluate(self):
        # One key, point queries and a tiny eps are still inside the domain:
        # every bound evaluates to a finite, non-negative size.
        for row in table1(1, 2**40, 1, 1e-9):
            if row.space_bits is not None:
                assert math.isfinite(row.space_bits) and row.space_bits >= 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xy", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[2]
        assert len(lines) == 5

    def test_format_fpr(self):
        assert format_fpr(0) == "0"
        assert format_fpr(0.0123) == "1.23e-02"

    def test_format_speed_table_orders_by_speed(self):
        text = format_speed_table([("Slow", 1000.0), ("Fast", 10.0)], "times")
        lines = text.splitlines()
        assert lines.index([l for l in lines if "Fast" in l][0]) < lines.index(
            [l for l in lines if "Slow" in l][0]
        )
        assert "(100.00 x)" in text

    def test_format_series(self):
        text = format_series("x", [1, 2], [("s1", [0.5, 0.25]), ("s2", [1, 2])])
        assert "s1" in text and "s2" in text
        assert len(text.splitlines()) == 4
