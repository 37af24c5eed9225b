"""Tests for the command-line interface (repro.cli)."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import generators as gen
from repro.graphs.io import read_edge_list, write_edge_list
from repro.spanners.verification import max_stretch_of_nonspanner_edges


@pytest.fixture()
def edge_list_file(tmp_path):
    graph = gen.erdos_renyi_graph(80, 0.2, seed=5, ensure_connected=True)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sparsify_defaults_are_unset_sentinels(self):
        # None means "not given": explicit flag > --config file > built-in
        # default (0.5 / 4.0 / practical / seed 0), resolved by the engine.
        args = build_parser().parse_args(["sparsify", "in.txt", "out.txt"])
        assert args.method is None
        assert args.epsilon is None
        assert args.rho is None
        assert args.mode is None
        assert not args.tree_bundle
        assert args.backend is None
        assert args.workers is None
        assert args.seed is None
        assert args.config is None

    def test_sparsify_method_flag(self):
        args = build_parser().parse_args(
            ["sparsify", "in.txt", "out.txt", "--method", "spielman-srivastava"]
        )
        assert args.method == "spielman-srivastava"

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsify", "a", "b", "--method", "quantum"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "in.txt"])
        assert args.methods is None
        assert not args.certify

    def test_compare_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "in.txt", "--methods", "koutis", "quantum"])

    def test_sparsify_execution_flags(self):
        args = build_parser().parse_args(
            ["sparsify", "in.txt", "out.txt", "--backend", "thread", "--workers", "4"]
        )
        assert args.backend == "thread"
        assert args.workers == 4

    def test_rejects_the_retired_shards_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsify", "a", "b", "--shards", "4"])

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsify", "a", "b", "--backend", "quantum"])

    def test_batch_requires_output_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "a.txt", "b.txt"])

    def test_spanner_defaults(self):
        args = build_parser().parse_args(["spanner", "in.txt", "out.txt"])
        assert args.t == 1
        assert args.k is None

    def test_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsify", "a", "b", "--mode", "heroic"])

    def test_solver_flag(self):
        args = build_parser().parse_args(["sparsify", "in.txt", "out.txt"])
        assert args.solver is None  # unset sentinel: config default wins
        args = build_parser().parse_args(
            ["sparsify", "in.txt", "out.txt", "--solver", "chain"]
        )
        assert args.solver == "chain"

    def test_rejects_unknown_solver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsify", "a", "b", "--solver", "gaussian"])


class TestSparsifyCommand:
    def test_writes_sparsifier(self, edge_list_file, tmp_path, capsys):
        in_path, graph = edge_list_file
        out_path = tmp_path / "sparse.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--rho", "4", "--bundle-t", "1", "--seed", "3",
        ])
        assert code == 0
        output = read_edge_list(out_path)
        assert output.num_vertices == graph.num_vertices
        assert 0 < output.num_edges <= graph.num_edges
        captured = capsys.readouterr().out
        assert "reduction" in captured

    def test_certify_flag_prints_certificate(self, edge_list_file, tmp_path, capsys):
        in_path, _ = edge_list_file
        out_path = tmp_path / "sparse.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--bundle-t", "2", "--certify", "--seed", "1",
        ])
        assert code == 0
        assert "certificate:" in capsys.readouterr().out

    def test_certify_resistances_flag_prints_ratio_band(self, edge_list_file, tmp_path, capsys):
        in_path, _ = edge_list_file
        out_path = tmp_path / "sparse.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--bundle-t", "2", "--certify-resistances", "8", "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "resistance certificate:" in output
        assert "8 probe pairs" in output

    def test_solver_chain_certifies_end_to_end(self, edge_list_file, tmp_path, capsys):
        """--solver chain routes the resistance certificate through chain-PCG."""
        in_path, _ = edge_list_file
        out_path = tmp_path / "sparse.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--bundle-t", "2", "--certify-resistances", "6", "--seed", "1",
            "--solver", "chain",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "resistance certificate:" in output
        assert "6 probe pairs" in output

    def test_tree_bundle_flag(self, edge_list_file, tmp_path):
        in_path, graph = edge_list_file
        out_path = tmp_path / "sparse_tree.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--bundle-t", "2", "--tree-bundle", "--seed", "1",
        ])
        assert code == 0
        assert read_edge_list(out_path).num_edges <= graph.num_edges

    def test_method_flag_runs_baseline(self, edge_list_file, tmp_path, capsys):
        in_path, graph = edge_list_file
        out_path = tmp_path / "ss.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--method", "spielman-srivastava", "--epsilon", "0.5", "--seed", "3",
        ])
        assert code == 0
        output = read_edge_list(out_path)
        assert output.num_vertices == graph.num_vertices
        assert "method: spielman-srivastava" in capsys.readouterr().out

    def test_method_output_matches_legacy_function(self, edge_list_file, tmp_path):
        from repro.core.sparsify import parallel_sparsify

        in_path, graph = edge_list_file
        out_path = tmp_path / "engine.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--method", "koutis", "--bundle-t", "2", "--seed", "11",
        ])
        assert code == 0
        from repro.core.config import SparsifierConfig

        legacy = parallel_sparsify(
            graph, epsilon=0.5, rho=4.0, config=SparsifierConfig(bundle_t=2), seed=11
        )
        written = read_edge_list(out_path)
        assert np.array_equal(written.edge_u, legacy.sparsifier.edge_u)
        assert np.array_equal(written.edge_v, legacy.sparsifier.edge_v)

    def test_config_file_drives_request(self, edge_list_file, tmp_path, capsys):
        import json

        in_path, _ = edge_list_file
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps({
            "method": "uniform", "seed": 9, "options": {"probability": 0.5},
        }))
        out_path = tmp_path / "from_config.txt"
        code = main([
            "sparsify", str(in_path), str(out_path), "--config", str(request_path),
        ])
        assert code == 0
        assert "method: uniform" in capsys.readouterr().out

    def test_explicit_flags_override_config_file(self, edge_list_file, tmp_path, capsys):
        import json

        in_path, _ = edge_list_file
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps({"method": "uniform", "seed": 9}))
        out_path = tmp_path / "override.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--config", str(request_path), "--method", "koutis", "--bundle-t", "1",
        ])
        assert code == 0
        assert "method: koutis" in capsys.readouterr().out

    def test_method_override_drops_stale_file_options(self, edge_list_file, tmp_path, capsys):
        import json

        in_path, _ = edge_list_file
        request_path = tmp_path / "req.json"
        # probability is a uniform-specific option; overriding the method
        # must not forward it to koutis as an unexpected keyword.
        request_path.write_text(json.dumps({
            "method": "uniform", "seed": 9, "options": {"probability": 0.5},
        }))
        out_path = tmp_path / "override_opts.txt"
        code = main([
            "sparsify", str(in_path), str(out_path),
            "--config", str(request_path), "--method", "koutis", "--bundle-t", "1",
        ])
        assert code == 0
        assert "method: koutis" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_writes_every_sparsifier(self, tmp_path, capsys):
        inputs = []
        originals = []
        for i in range(3):
            graph = gen.erdos_renyi_graph(50, 0.2, seed=i, ensure_connected=True)
            path = tmp_path / f"g{i}.txt"
            write_edge_list(graph, path)
            inputs.append(str(path))
            originals.append(graph)
        out_dir = tmp_path / "out"
        code = main([
            "batch", *inputs, "--output-dir", str(out_dir),
            "--bundle-t", "2", "--seed", "4", "--backend", "thread", "--workers", "2",
        ])
        assert code == 0
        for i, graph in enumerate(originals):
            sparse = read_edge_list(out_dir / f"g{i}.sparsified.txt")
            assert sparse.num_vertices == graph.num_vertices
            assert 0 < sparse.num_edges <= graph.num_edges
        out = capsys.readouterr().out
        assert "backend=thread" in out
        assert "total :" in out

    def test_batch_disambiguates_equal_stems(self, tmp_path):
        graph = gen.erdos_renyi_graph(40, 0.25, seed=0, ensure_connected=True)
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "graph.txt"
            write_edge_list(graph, path)
            paths.append(str(path))
        out_dir = tmp_path / "out"
        # A third input whose stem already looks like a numbered duplicate
        # must not collide with the generated names either.
        tricky = tmp_path / "graph-1.txt"
        write_edge_list(graph, tricky)
        paths.append(str(tricky))
        code = main(["batch", *paths, "--output-dir", str(out_dir), "--bundle-t", "1", "--seed", "2"])
        assert code == 0
        assert (out_dir / "graph.sparsified.txt").exists()
        assert (out_dir / "graph-1.sparsified.txt").exists()
        assert (out_dir / "graph-1-1.sparsified.txt").exists()


class TestCompareCommand:
    def test_side_by_side_table(self, edge_list_file, capsys):
        in_path, graph = edge_list_file
        code = main([
            "compare", str(in_path),
            "--methods", "koutis", "uniform", "spielman-srivastava",
            "--bundle-t", "2", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Method comparison" in out
        for column in ("method", "kept_m", "reduction", "wall_s"):
            assert column in out
        for name in ("koutis", "uniform", "spielman-srivastava"):
            assert name in out

    def test_default_method_set(self, edge_list_file, capsys):
        in_path, _ = edge_list_file
        code = main(["compare", str(in_path), "--bundle-t", "1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kapralov-panigrahi" in out

    def test_certify_fills_certificate_columns(self, edge_list_file, capsys):
        in_path, _ = edge_list_file
        code = main([
            "compare", str(in_path), "--methods", "koutis", "uniform",
            "--bundle-t", "2", "--seed", "5", "--certify",
        ])
        assert code == 0
        table = capsys.readouterr().out
        # With --certify the cert columns hold numbers, not "-" placeholders.
        data_rows = [
            line for line in table.splitlines()
            if line.startswith(("koutis", "uniform"))
        ]
        assert data_rows and all("-" not in row.split()[5] for row in data_rows)

    def test_requires_two_methods(self, edge_list_file, cli_error):
        in_path, _ = edge_list_file
        assert main(["compare", str(in_path), "--methods", "koutis"]) == 2
        assert re.search("at least two", cli_error())

    def test_honours_config_file_execution_fields(self, edge_list_file, tmp_path, capsys):
        """compare must see the same sparsifier the sparsify subcommand
        writes for the same --config."""
        import json

        from repro.graphs.io import read_edge_list as read

        in_path, _ = edge_list_file
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps({
            "seed": 6, "config": {"bundle_t": 2, "sampling_probability": 0.75},
        }))
        out_path = tmp_path / "configured.txt"
        assert main(["sparsify", str(in_path), str(out_path),
                     "--config", str(request_path)]) == 0
        written = read(out_path)
        default_path = tmp_path / "default.txt"
        assert main(["sparsify", str(in_path), str(default_path),
                     "--bundle-t", "2", "--seed", "6"]) == 0
        # The config file's field changes the sparsifier, so the row below
        # can only match when compare read the file.
        assert read(default_path).num_edges != written.num_edges
        capsys.readouterr()
        assert main(["compare", str(in_path), "--config", str(request_path),
                     "--methods", "koutis", "uniform"]) == 0
        table = capsys.readouterr().out
        koutis_row = next(line for line in table.splitlines() if line.startswith("koutis"))
        assert f" {written.num_edges} " in koutis_row

    def test_rejects_method_specific_options(self, edge_list_file, tmp_path, cli_error):
        import json

        in_path, _ = edge_list_file
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps({"options": {"probability": 0.5}}))
        assert main(["compare", str(in_path), "--config", str(request_path),
                     "--methods", "koutis", "uniform"]) == 2
        assert re.search("ambiguous", cli_error())

    def test_accepts_method_aliases(self, edge_list_file, tmp_path, capsys):
        in_path, _ = edge_list_file
        out_path = tmp_path / "alias.txt"
        code = main([
            "sparsify", str(in_path), str(out_path), "--method", "ss", "--seed", "1",
        ])
        assert code == 0
        # The engine reports the canonical name for the alias.
        assert "method: spielman-srivastava" in capsys.readouterr().out


class TestSpannerCommand:
    def test_single_spanner_has_valid_stretch(self, edge_list_file, tmp_path, capsys):
        in_path, graph = edge_list_file
        out_path = tmp_path / "spanner.txt"
        code = main(["spanner", str(in_path), str(out_path), "--seed", "2"])
        assert code == 0
        spanner = read_edge_list(out_path)
        assert spanner.num_edges <= graph.num_edges
        # The written spanner is a subgraph with bounded stretch.
        indices = np.flatnonzero(np.isin(graph.edge_keys(), spanner.edge_keys()))
        max_stretch, _ = max_stretch_of_nonspanner_edges(graph, indices)
        assert max_stretch <= 2 * np.ceil(np.log2(graph.num_vertices)) - 1 + 1e-9
        assert "spanner:" in capsys.readouterr().out

    def test_bundle_output(self, edge_list_file, tmp_path, capsys):
        in_path, graph = edge_list_file
        out_path = tmp_path / "bundle.txt"
        code = main(["spanner", str(in_path), str(out_path), "--t", "2", "--seed", "2"])
        assert code == 0
        bundle = read_edge_list(out_path)
        assert bundle.num_edges <= graph.num_edges
        assert "bundle" in capsys.readouterr().out

    @pytest.mark.parametrize("t", [0, -4])
    def test_rejects_bundle_size_below_one(self, edge_list_file, tmp_path, t, cli_error):
        in_path, _ = edge_list_file
        out_path = tmp_path / "spanner.txt"
        assert main(["spanner", str(in_path), str(out_path), "--t", str(t)]) == 2
        assert re.search("--t", cli_error())
        assert not out_path.exists()
