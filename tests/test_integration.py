"""End-to-end integration tests: the full pipelines the examples/benchmarks use."""

import numpy as np

from repro import (
    SparsifierConfig,
    certify_approximation,
    parallel_sparsify,
    solve_laplacian,
    spielman_srivastava_sparsify,
)
from repro.analysis.spectral import approximation_report
from repro.core.distributed_sparsify import distributed_parallel_sparsify
from repro.graphs import generators as gen
from repro.graphs.connectivity import connected_components, is_connected
from repro.graphs.operations import induced_subgraph
from repro.solvers.peng_spielman import baseline_cg_solve


class TestSparsifyThenSolve:
    """Sparsify a dense graph, then use it as a preconditioner surrogate for solving."""

    def test_sparsifier_preserves_solution_quality(self):
        g = gen.erdos_renyi_graph(150, 0.3, seed=0, ensure_connected=True)
        sparse = parallel_sparsify(
            g, epsilon=0.5, rho=4, config=SparsifierConfig.practical(bundle_t=2), seed=1
        ).sparsifier
        rng = np.random.default_rng(2)
        b = rng.standard_normal(g.num_vertices)
        b -= b.mean()
        x_full = baseline_cg_solve(g, b, tol=1e-10).x
        x_sparse = baseline_cg_solve(sparse, b, tol=1e-10).x
        # Solutions of spectrally-close systems are close in the L_G-energy norm
        # relative to the solution energy.
        diff = x_full - x_sparse
        energy_diff = float(diff @ (g.laplacian() @ diff))
        energy_full = float(x_full @ (g.laplacian() @ x_full))
        assert energy_diff <= 2.0 * energy_full

    def test_solver_on_image_affinity_graph(self):
        g = gen.image_affinity_graph(16, 16, beta=20.0, seed=3)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(g.num_vertices)
        b -= b.mean()
        report = solve_laplacian(
            g, b, tol=1e-8, config=SparsifierConfig.practical(bundle_t=1), seed=5
        )
        assert report.result.converged
        residual = np.linalg.norm(g.laplacian() @ report.x - b) / np.linalg.norm(b)
        assert residual < 1e-6


class TestPipelineComparisons:
    def test_spanner_sparsifier_vs_spielman_srivastava(self):
        """Both produce usable sparsifiers; SS is smaller at matched epsilon but needs solves."""
        g = gen.erdos_renyi_graph(150, 0.4, seed=6, ensure_connected=True)
        ours = parallel_sparsify(
            g, epsilon=0.5, rho=8, config=SparsifierConfig.practical(bundle_t=2), seed=7
        )
        theirs = spielman_srivastava_sparsify(g, epsilon=0.5, seed=8)
        cert_ours = certify_approximation(g, ours.sparsifier)
        cert_theirs = certify_approximation(g, theirs.sparsifier)
        # Practical-constant spanner sparsifier: bounded distortion (measured,
        # not the theory guarantee); SS with exact resistances meets epsilon.
        assert cert_ours.epsilon_achieved < 1.5
        assert cert_theirs.epsilon_achieved < 1.0
        assert is_connected(ours.sparsifier)
        assert is_connected(theirs.sparsifier)

    def test_distributed_and_sequential_agree_statistically(self):
        g = gen.erdos_renyi_graph(80, 0.25, seed=9, ensure_connected=True)
        config = SparsifierConfig.practical(bundle_t=2)
        seq = parallel_sparsify(g, epsilon=0.5, rho=4, config=config, seed=10)
        dist = distributed_parallel_sparsify(g, epsilon=0.5, rho=4, config=config, seed=10)
        ratio = dist.output_edges / max(seq.output_edges, 1)
        assert 0.5 < ratio < 2.0

    def test_full_report_pipeline(self):
        g = gen.random_geometric_graph(150, 0.25, seed=11)
        # Work on the largest component so resistances are defined.
        labels = connected_components(g)
        largest = induced_subgraph(g, np.flatnonzero(labels == np.argmax(np.bincount(labels))))
        result = parallel_sparsify(
            largest, epsilon=0.5, rho=4, config=SparsifierConfig.practical(bundle_t=2), seed=12
        )
        report = approximation_report(largest, result.sparsifier, seed=13)
        assert report.connectivity_preserved
        assert 0 < report.certificate.lower <= report.certificate.upper < 10
