"""Tests for repro.analysis (spectral reports and experiment tables)."""

import numpy as np
import pytest

from repro.analysis.reporting import ExperimentTable, format_table
from repro.analysis.spectral import (
    approximation_report,
    quadratic_form_ratios,
    resistance_preservation,
)
from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.graphs import generators as gen


class TestQuadraticFormRatios:
    def test_identity_pair(self, small_er_graph):
        lo, hi = quadratic_form_ratios(small_er_graph, small_er_graph, seed=0)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_scaled_pair(self, small_er_graph):
        lo, hi = quadratic_form_ratios(small_er_graph, small_er_graph.scaled(2.0), seed=1)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0)

    def test_ratios_within_certificate(self, medium_er_graph):
        from repro.core.certificates import certify_approximation

        result = parallel_sample(
            medium_er_graph, config=SparsifierConfig.practical(bundle_t=2), seed=2
        )
        cert = certify_approximation(medium_er_graph, result.sparsifier)
        lo, hi = quadratic_form_ratios(medium_er_graph, result.sparsifier, seed=3)
        assert cert.lower - 1e-9 <= lo
        assert hi <= cert.upper + 1e-9

    def test_empty_denominator_reports_nan(self):
        """An edgeless original skips every probe: NaN, not a fake perfect score."""
        empty = gen.path_graph(5).select_edges(np.zeros(4, dtype=bool))
        bounds = quadratic_form_ratios(empty, empty, seed=0)
        lo, hi = bounds  # tuple-style unpacking still works
        assert np.isnan(lo) and np.isnan(hi)
        assert bounds.num_probes_used == 0

    def test_probe_count_surfaced(self, small_er_graph):
        bounds = quadratic_form_ratios(small_er_graph, small_er_graph, num_vectors=7, seed=0)
        assert bounds.num_probes_used == 7


class TestResistancePreservation:
    def test_identity_pair(self, small_er_graph):
        lo, hi = resistance_preservation(small_er_graph, small_er_graph, num_pairs=8, seed=0)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_explicit_pairs(self, small_er_graph):
        lo, hi = resistance_preservation(
            small_er_graph, small_er_graph.scaled(2.0), pairs=[(0, 5), (1, 7)]
        )
        # Doubling weights halves resistances.
        assert lo == pytest.approx(0.5, abs=1e-6)
        assert hi == pytest.approx(0.5, abs=1e-6)

    def test_empty_pairs_report_nan(self, small_er_graph):
        bounds = resistance_preservation(small_er_graph, small_er_graph, pairs=[])
        assert np.isnan(bounds.minimum) and np.isnan(bounds.maximum)
        assert bounds.num_probes_used == 0

    def test_small_components_get_full_probe_count(self):
        """Direct in-component sampling: many tiny components cannot starve probes."""
        from repro.graphs.operations import disjoint_union

        triangle = gen.cycle_graph(3)
        g = triangle
        for _ in range(9):
            g = disjoint_union(g, triangle)  # 10 triangles, n = 30
        bounds = resistance_preservation(g, g, num_pairs=32, seed=0)
        assert bounds.num_probes_used == 32
        assert bounds.minimum == pytest.approx(1.0, abs=1e-6)
        assert bounds.maximum == pytest.approx(1.0, abs=1e-6)

    def test_sparsifier_disconnection_is_infinite(self, small_er_graph):
        """A probe pair split apart by the 'sparsifier' shows up as an inf ratio."""
        empty = small_er_graph.select_edges(np.zeros(small_er_graph.num_edges, dtype=bool))
        bounds = resistance_preservation(small_er_graph, empty, num_pairs=4, seed=1)
        assert np.isinf(bounds.maximum)
        assert bounds.num_probes_used == 4


class TestApproximationReport:
    def test_full_report(self, medium_er_graph):
        result = parallel_sample(
            medium_er_graph, config=SparsifierConfig.practical(bundle_t=2), seed=4
        )
        report = approximation_report(medium_er_graph, result.sparsifier, seed=5)
        assert report.edges_original == medium_er_graph.num_edges
        assert report.edges_sparsifier == result.sparsifier.num_edges
        assert report.connectivity_preserved
        assert report.num_probes_used == 32
        assert report.num_resistance_pairs_used == 16
        assert report.edges_original / report.edges_sparsifier >= 1.0
        assert report.certificate.lower <= report.quadratic_ratio_min + 1e-9
        assert report.quadratic_ratio_max <= report.certificate.upper + 1e-9
        # Resistance ratios of a (1 +- eps)-ish sparsifier stay within the inverse band.
        assert report.resistance_ratio_min > 0.2
        assert report.resistance_ratio_max < 5.0

    def test_report_without_resistances(self, small_er_graph):
        report = approximation_report(
            small_er_graph, small_er_graph, include_resistances=False
        )
        assert np.isnan(report.resistance_ratio_min)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_column"], [[1, 2.5], [10, 0.00001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_column" in lines[1]
        assert len(lines) == 5

    def test_format_value_types(self):
        text = format_table(["x"], [[True], [float("nan")], [0.0], [123456789.0]])
        assert "yes" in text
        assert "nan" in text

    def test_experiment_table_add_and_render(self):
        table = ExperimentTable("E1", ["n", "edges"])
        table.add_row(n=10, edges=20)
        table.add_row(n=20, edges=50)
        rendered = table.render()
        assert "Experiment E1" in rendered
        assert len(table.rows) == 2

    def test_experiment_table_missing_column(self):
        table = ExperimentTable("E1", ["n", "edges"])
        with pytest.raises(ValueError):
            table.add_row(n=10)
