"""Golden-output tests for the vectorized spanner/bundle hot path.

The ranked-row Baswana–Sen kernel and the masked bundle peel must
select *bit-identical* edge sets to the seed implementation for every
fixed seed.  Three independent guards:

* ``tests/golden/spanner_goldens.json`` — edge selections frozen from the
  seed code before the refactor (regenerable via
  ``tests/golden/generate_goldens.py``);
* ``repro.spanners._reference`` — the seed implementation preserved
  verbatim, compared live on the same inputs;
* ``BUNDLE_COSTS`` — the bundle's PRAM cost and label breakdown, stored.

Plus the structural guarantee the refactor exists for: zero validated
``Graph`` constructions inside the t-round peel loop.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.generators import banded_graph
from repro.graphs.graph import Graph
from repro.parallel.pram import PRAMTracker
from repro.spanners._reference import (
    reference_baswana_sen_spanner,
    reference_t_bundle_spanner,
)
from repro.spanners import baswana_sen as baswana_sen_module
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.bundle import t_bundle_spanner

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "spanner_goldens.json"


@pytest.fixture(scope="module")
def golden_cases():
    """Rebuild the exact graphs the goldens were generated from (once)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "spanner_golden_generator", GOLDEN_PATH.parent / "generate_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenOutputs:
    """Vectorized implementations vs. selections frozen from the seed code."""

    @pytest.mark.parametrize("case_index", range(7))
    def test_spanner_matches_golden(self, goldens, golden_cases, case_index):
        name, graph, seed, k, _t = golden_cases[case_index]
        result = baswana_sen_spanner(graph, k=k, seed=seed)
        expected = np.array(goldens[name]["spanner_edge_indices"], dtype=np.int64)
        assert np.array_equal(result.edge_indices, expected)

    @pytest.mark.parametrize("case_index", range(7))
    def test_bundle_matches_golden(self, goldens, golden_cases, case_index):
        name, graph, seed, k, t = golden_cases[case_index]
        result = t_bundle_spanner(graph, t=t, k=k, seed=seed)
        expected = np.array(goldens[name]["bundle_edge_indices"], dtype=np.int64)
        assert np.array_equal(result.edge_indices, expected)
        expected_components = goldens[name]["bundle_components"]
        assert len(result.component_edge_indices) == len(expected_components)
        for got, want in zip(result.component_edge_indices, expected_components):
            assert np.array_equal(got, np.array(want, dtype=np.int64))


class TestAgainstReference:
    """Vectorized implementations vs. the preserved seed implementation, live."""

    @pytest.mark.parametrize("seed", [0, 13, 99])
    def test_spanner_bit_identical_er(self, seed):
        g = gen.erdos_renyi_graph(
            90, 0.2, seed=seed, weight_range=(0.5, 3.0), ensure_connected=True
        )
        fast = baswana_sen_spanner(g, seed=seed + 1)
        slow = reference_baswana_sen_spanner(g, seed=seed + 1)
        assert np.array_equal(fast.edge_indices, slow.edge_indices)

    @pytest.mark.parametrize("seed", [3, 21])
    def test_bundle_bit_identical_banded(self, seed):
        g = banded_graph(150, 5)
        fast = t_bundle_spanner(g, t=4, seed=seed)
        slow = reference_t_bundle_spanner(g, t=4, seed=seed)
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        assert fast.t == slow.t
        assert fast.exhausted == slow.exhausted
        for a, b in zip(fast.component_edge_indices, slow.component_edge_indices):
            assert np.array_equal(a, b)

    def test_bundle_bit_identical_powerlaw_exhaustion(self):
        # Sparse power-law graph: the bundle exhausts it, exercising the
        # early-stop paths of both implementations.
        g = gen.barabasi_albert_graph(80, 2, seed=4)
        fast = t_bundle_spanner(g, t=6, seed=7)
        slow = reference_t_bundle_spanner(g, t=6, seed=7)
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        assert fast.exhausted == slow.exhausted
        assert fast.t == slow.t

    def test_bundle_no_early_stop_matches(self):
        path = gen.path_graph(25)
        fast = t_bundle_spanner(path, t=3, seed=1, stop_when_exhausted=False)
        slow = reference_t_bundle_spanner(path, t=3, seed=1, stop_when_exhausted=False)
        assert fast.t == slow.t == 3
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        for a, b in zip(fast.component_edge_indices, slow.component_edge_indices):
            assert np.array_equal(a, b)

    @staticmethod
    def _multigraph(seed, integer_weights=False):
        """ER graph plus parallel copies of a third of its edges, shuffled in.

        Half of the copies tie their original's weight and half draw a new
        one, so covered-edge removal and the earliest-row tie-break both
        see parallel classes (stream working sets and multigraph inputs
        reach the spanner kernel with them).  ``integer_weights`` rounds
        every weight up to {1, 2, 3}.
        """
        g = gen.erdos_renyi_graph(
            80, 0.2, seed=seed, weight_range=(0.5, 3.0), ensure_connected=True
        )
        rng = np.random.default_rng(seed)
        dup = rng.choice(g.num_edges, size=g.num_edges // 3, replace=False)
        tied = rng.random(dup.size) < 0.5
        dup_w = np.where(tied, g.edge_weights[dup], rng.uniform(0.5, 3.0, dup.size))
        order = rng.permutation(g.num_edges + dup.size)
        u = np.concatenate([g.edge_u, g.edge_u[dup]])[order]
        v = np.concatenate([g.edge_v, g.edge_v[dup]])[order]
        w = np.concatenate([g.edge_weights, dup_w])[order]
        if integer_weights:
            # Weights in {1, 2, 3}: many equal lengths, so groups tie rows
            # of both directions and the direction tie-break decides.
            w = np.ceil(w)
        return Graph(g.num_vertices, u, v, w)

    @pytest.mark.parametrize(
        "seed, integer_weights",
        [
            pytest.param(2, False, id="2"),
            pytest.param(17, False, id="17"),
            pytest.param(2, True, id="w123-2"),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, None])
    def test_parallel_edges_bit_identical(self, seed, integer_weights, k):
        g = self._multigraph(seed, integer_weights)
        fast = baswana_sen_spanner(g, k=k, seed=seed + 1)
        slow = reference_baswana_sen_spanner(g, k=k, seed=seed + 1)
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        fast_bundle = t_bundle_spanner(g, t=4, k=k, seed=seed)
        slow_bundle = reference_t_bundle_spanner(g, t=4, k=k, seed=seed)
        assert np.array_equal(fast_bundle.edge_indices, slow_bundle.edge_indices)
        assert fast_bundle.t == slow_bundle.t
        assert fast_bundle.exhausted == slow_bundle.exhausted
        for a, b in zip(fast_bundle.component_edge_indices, slow_bundle.component_edge_indices):
            assert np.array_equal(a, b)


# name -> ((work, depth) of ``t_bundle_spanner(...).cost``, per-label PRAM
# breakdown) for the golden cases and ``TestAgainstReference._multigraph(2)``
# at k=3, t=4.  Stored values, not recomputed: the bundle kernel must charge
# exactly these costs under exactly these labels.
BUNDLE_COSTS = {
    "banded-120-b6": ((22603, 341), {
        "bundle/assemble": (698, 10), "bundle/peel-edges": (1267, 3),
        "spanner/group-min": (3565, 125), "spanner/phase2": (74, 7),
        "spanner/propagate-sampling": (2400, 20), "spanner/remove-covered": (3623, 19),
        "spanner/sample-clusters": (944, 20), "spanner/scan-edges": (7320, 20),
        "spanner/vertex-decisions": (2712, 117),
    }),
    "grid-10x10": ((2383, 63), {
        "bundle/assemble": (180, 8), "bundle/peel-edges": (180, 1),
        "spanner/group-min": (386, 20), "spanner/phase2": (4, 2),
        "spanner/propagate-sampling": (300, 3), "spanner/remove-covered": (247, 3),
        "spanner/sample-clusters": (223, 3), "spanner/scan-edges": (494, 3),
        "spanner/vertex-decisions": (369, 20),
    }),
    "powerlaw-150-a3": ((13274, 276), {
        "bundle/assemble": (444, 9), "bundle/peel-edges": (609, 2),
        "spanner/group-min": (1458, 93), "spanner/phase2": (6, 3),
        "spanner/propagate-sampling": (3000, 20), "spanner/remove-covered": (1842, 19),
        "spanner/sample-clusters": (942, 20), "spanner/scan-edges": (3692, 20),
        "spanner/vertex-decisions": (1281, 90),
    }),
    "er-100-weighted": ((16227, 162), {
        "bundle/assemble": (880, 10), "bundle/peel-edges": (1164, 2),
        "spanner/group-min": (3134, 56), "spanner/phase2": (406, 11),
        "spanner/propagate-sampling": (700, 7), "spanner/remove-covered": (2262, 7),
        "spanner/sample-clusters": (369, 7), "spanner/scan-edges": (4524, 7),
        "spanner/vertex-decisions": (2788, 55),
    }),
    "cycle-50": ((850, 59), {
        "bundle/assemble": (50, 6), "spanner/group-min": (80, 16),
        "spanner/phase2": (4, 2), "spanner/propagate-sampling": (250, 5),
        "spanner/remove-covered": (92, 4), "spanner/sample-clusters": (106, 5),
        "spanner/scan-edges": (188, 5), "spanner/vertex-decisions": (80, 16),
    }),
    "er-80-dense": ((13762, 105), {
        "bundle/assemble": (973, 10), "bundle/peel-edges": (1410, 3),
        "spanner/group-min": (2436, 29), "spanner/phase2": (1634, 18),
        "spanner/propagate-sampling": (320, 4), "spanner/remove-covered": (1411, 4),
        "spanner/sample-clusters": (320, 4), "spanner/scan-edges": (2822, 4),
        "spanner/vertex-decisions": (2436, 29),
    }),
    "banded-200-b4-k5": ((18493, 227), {
        "bundle/assemble": (790, 10), "bundle/peel-edges": (1247, 3),
        "spanner/group-min": (2980, 80), "spanner/phase2": (8, 3),
        "spanner/propagate-sampling": (2800, 14), "spanner/remove-covered": (2331, 13),
        "spanner/sample-clusters": (1201, 14), "spanner/scan-edges": (4664, 14),
        "spanner/vertex-decisions": (2472, 76),
    }),
    "multigraph-2": ((17707, 177), {
        "bundle/assemble": (946, 10), "bundle/peel-edges": (1467, 3),
        "spanner/group-min": (3487, 57), "spanner/phase2": (928, 18),
        "spanner/propagate-sampling": (640, 8), "spanner/remove-covered": (2418, 8),
        "spanner/sample-clusters": (403, 8), "spanner/scan-edges": (4836, 8),
        "spanner/vertex-decisions": (2582, 57),
    }),
}


@pytest.fixture(scope="module")
def cost_cases(golden_cases):
    multigraph = ("multigraph-2", TestAgainstReference._multigraph(2), 2, 3, 4)
    return list(golden_cases) + [multigraph]


def _bundle_with_costs(graph, seed, k, t):
    tracker = PRAMTracker()
    result = t_bundle_spanner(graph, t=t, k=k, seed=seed, tracker=tracker)
    breakdown = {label: (c.work, c.depth) for label, c in tracker.breakdown().items()}
    return result, breakdown


class TestBundleCostTable:
    """The bundle kernel's PRAM accounting, pinned label by label."""

    @pytest.mark.parametrize("case_index", range(len(BUNDLE_COSTS)))
    def test_bundle_cost_matches_table(self, cost_cases, case_index):
        name, graph, seed, k, t = cost_cases[case_index]
        result, breakdown = _bundle_with_costs(graph, seed, k, t)
        cost, labels = BUNDLE_COSTS[name]
        assert (result.cost.work, result.cost.depth) == cost
        assert breakdown == labels


class TestLexsortBranch:
    """Inputs past the packed-key bit budget sort the same (tail, cluster,
    rank) triples with ``np.lexsort``: same selections, same costs."""

    @pytest.mark.parametrize("case_index", range(len(BUNDLE_COSTS)))
    def test_lexsort_branch_matches(self, monkeypatch, cost_cases, case_index):
        name, graph, seed, k, t = cost_cases[case_index]
        packed_spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        packed_bundle, packed_costs = _bundle_with_costs(graph, seed, k, t)
        monkeypatch.setattr(baswana_sen_module, "_KEY_BITS", 0)
        rows = baswana_sen_module._Rows(
            graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights
        )
        assert not rows.packed
        spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        bundle, costs = _bundle_with_costs(graph, seed, k, t)
        assert np.array_equal(spanner.edge_indices, packed_spanner.edge_indices)
        assert spanner.cost == packed_spanner.cost
        assert len(bundle.component_edge_indices) == len(packed_bundle.component_edge_indices)
        for got, want in zip(bundle.component_edge_indices, packed_bundle.component_edge_indices):
            assert np.array_equal(got, want)
        assert costs == packed_costs == BUNDLE_COSTS[name][1]


class TestWideTables:
    """Inputs with ``2m`` past ``_INT32_LIMIT`` keep the rank, class and
    edge tables in int64: same selections, same costs."""

    @staticmethod
    def _tables(graph):
        rows = baswana_sen_module._Rows(
            graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights
        )
        tables = [rows.edge, rows.edge_of_rank, rows.ranks]
        if rows.class_of_rank is not None:
            tables.append(rows.class_of_rank)
        assert rows.base.dtype == rows.head.dtype == np.int64
        return {table.dtype for table in tables}

    @pytest.mark.parametrize("case_index", range(len(BUNDLE_COSTS)))
    def test_int64_tables_match(self, monkeypatch, cost_cases, case_index):
        name, graph, seed, k, t = cost_cases[case_index]
        assert self._tables(graph) == {np.dtype(np.int32)}
        narrow_spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        narrow_bundle, narrow_costs = _bundle_with_costs(graph, seed, k, t)
        monkeypatch.setattr(baswana_sen_module, "_INT32_LIMIT", 0)
        assert self._tables(graph) == {np.dtype(np.int64)}
        spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        bundle, costs = _bundle_with_costs(graph, seed, k, t)
        assert np.array_equal(spanner.edge_indices, narrow_spanner.edge_indices)
        assert spanner.cost == narrow_spanner.cost
        assert len(bundle.component_edge_indices) == len(narrow_bundle.component_edge_indices)
        for got, want in zip(bundle.component_edge_indices, narrow_bundle.component_edge_indices):
            assert np.array_equal(got, want)
        assert bundle.cost == narrow_bundle.cost
        assert costs == narrow_costs == BUNDLE_COSTS[name][1]


class TestDecisionKeyFallback:
    """Inputs past the decision key's bit budget decide each vertex with
    two minimum reductions instead of one packed one: same selections,
    same costs."""

    @pytest.mark.parametrize("case_index", range(len(BUNDLE_COSTS)))
    def test_fallback_matches_packed(self, monkeypatch, cost_cases, case_index):
        name, graph, seed, k, t = cost_cases[case_index]
        packed_spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        packed_bundle, packed_costs = _bundle_with_costs(graph, seed, k, t)
        monkeypatch.setattr(baswana_sen_module, "_DECISION_BITS", 0)
        spanner = baswana_sen_spanner(graph, k=k, seed=seed)
        bundle, costs = _bundle_with_costs(graph, seed, k, t)
        assert np.array_equal(spanner.edge_indices, packed_spanner.edge_indices)
        assert spanner.cost == packed_spanner.cost
        assert len(bundle.component_edge_indices) == len(packed_bundle.component_edge_indices)
        for got, want in zip(bundle.component_edge_indices, packed_bundle.component_edge_indices):
            assert np.array_equal(got, want)
        assert costs == packed_costs == BUNDLE_COSTS[name][1]


class TestRowRanks:
    """``_Rows`` ranks rows by (length, direction, edge position) on every
    sort path: the stable argsort of the concatenated ``[u -> v; v -> u]``
    lengths."""

    @pytest.mark.parametrize("lengths", ["distinct", "all-equal", "partly-tied"])
    def test_ranks_match_stable_argsort(self, lengths):
        rng = np.random.default_rng(11)
        m = 500
        u = rng.integers(0, 40, m)
        v = (u + rng.integers(1, 40, m)) % 40
        if lengths == "distinct":
            weights = rng.uniform(0.5, 3.0, m)
        elif lengths == "all-equal":
            weights = np.ones(m)
        else:
            weights = rng.uniform(0.5, 3.0, m)
            tied = rng.random(m) < 0.4
            weights[tied] = rng.integers(1, 4, int(tied.sum()))
        rows = baswana_sen_module._Rows(40, u, v, weights)
        order = np.argsort(np.concatenate([1.0 / weights, 1.0 / weights]), kind="stable")
        expected = np.empty(2 * m, dtype=np.int64)
        expected[order] = np.arange(2 * m)
        assert np.array_equal(rows.base & ((1 << rows.rank_bits) - 1), expected)
        assert np.array_equal(rows.edge_of_rank[expected], np.tile(np.arange(m), 2))
        # Classes number the distinct lengths in rank order.
        ranks = np.arange(2 * m)
        classes = ranks >> 1 if rows.class_of_rank is None else rows.class_of_rank
        assert (rows.class_of_rank is None) == (lengths == "distinct")
        by_rank = 1.0 / weights[rows.edge_of_rank]
        assert classes[0] == 0
        assert np.array_equal(np.diff(classes), (np.diff(by_rank) > 0).astype(np.int64))


class TestPeeledRows:
    """Later bundle components start on rows compacted past the edges
    earlier components took."""

    def test_bundle_with_mostly_peeled_rows_matches_reference(self):
        g = gen.erdos_renyi_graph(100, 0.6, seed=1, weight_range=(0.5, 3.0), ensure_connected=True)
        fast = t_bundle_spanner(g, t=6, seed=11)
        slow = reference_t_bundle_spanner(g, t=6, seed=11)
        assert fast.t == slow.t == 6
        taken = np.cumsum([c.size for c in fast.component_edge_indices])
        # Components 3 to 6 start with more than a quarter of the rows peeled.
        assert taken[1] > 0.25 * g.num_edges
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        for a, b in zip(fast.component_edge_indices, slow.component_edge_indices):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, integer_weights", [(17, False), (2, True)])
    def test_multigraph_bundle_matches_reference(self, seed, integer_weights):
        g = TestAgainstReference._multigraph(seed, integer_weights)
        fast = t_bundle_spanner(g, t=6, seed=seed)
        slow = reference_t_bundle_spanner(g, t=6, seed=seed)
        assert fast.t == slow.t
        assert fast.exhausted == slow.exhausted
        assert np.array_equal(fast.edge_indices, slow.edge_indices)
        for a, b in zip(fast.component_edge_indices, slow.component_edge_indices):
            assert np.array_equal(a, b)


class TestZeroValidationPeel:
    """The t-round peel must not run a single validated Graph construction."""

    def test_no_graph_init_inside_bundle(self, monkeypatch):
        g = gen.erdos_renyi_graph(120, 0.15, seed=6, ensure_connected=True)
        calls = []
        original_init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        result = t_bundle_spanner(g, t=4, seed=2)
        assert result.num_edges > 0
        assert len(calls) == 0

    def test_no_graph_init_inside_spanner(self, monkeypatch):
        g = banded_graph(100, 4)
        calls = []
        original_init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        result = baswana_sen_spanner(g, seed=3)
        assert result.spanner.num_edges > 0
        assert len(calls) == 0


class TestCostAccounting:
    """Satellite fixes: per-call cost deltas and the bundle charge labels."""

    def test_spanner_cost_is_delta_on_shared_tracker(self):
        g = gen.erdos_renyi_graph(70, 0.2, seed=8, ensure_connected=True)
        tracker = PRAMTracker()
        first = baswana_sen_spanner(g, seed=1, tracker=tracker)
        second = baswana_sen_spanner(g, seed=2, tracker=tracker)
        # Each result reports only its own work; the sum matches the tracker.
        assert first.cost.work > 0
        assert second.cost.work > 0
        assert first.cost.work + second.cost.work == pytest.approx(tracker.total.work)
        assert first.cost.depth + second.cost.depth == pytest.approx(tracker.total.depth)

    def test_bundle_cost_is_delta_on_shared_tracker(self):
        g = gen.erdos_renyi_graph(70, 0.25, seed=9, ensure_connected=True)
        tracker = PRAMTracker()
        first = t_bundle_spanner(g, t=2, seed=1, tracker=tracker)
        second = t_bundle_spanner(g, t=2, seed=2, tracker=tracker)
        assert first.cost.work > 0
        assert first.cost.work + second.cost.work == pytest.approx(tracker.total.work)

    def test_component_costs_sum_to_bundle_cost(self):
        g = gen.erdos_renyi_graph(80, 0.25, seed=10, ensure_connected=True)
        tracker = PRAMTracker()
        bundle = t_bundle_spanner(g, t=3, seed=5, tracker=tracker)
        assert bundle.cost.work == pytest.approx(tracker.total.work)

    def test_bundle_assemble_charged_and_final_peel_not(self):
        g = gen.erdos_renyi_graph(80, 0.3, seed=11, ensure_connected=True)
        tracker = PRAMTracker()
        bundle = t_bundle_spanner(g, t=3, seed=5, tracker=tracker)
        breakdown = tracker.breakdown()
        assert "bundle/assemble" in breakdown
        total_chosen = sum(c.shape[0] for c in bundle.component_edge_indices)
        assert breakdown["bundle/assemble"].work == pytest.approx(total_chosen)
        # t rounds but only t-1 peel passes: the final remainder is unused.
        assert breakdown["bundle/peel-edges"].work < bundle.t * g.num_edges
