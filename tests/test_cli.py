"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import Graph, save_graph


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_flags(self):
        args = build_parser().parse_args(
            ["match", "--dataset", "dip", "--pattern-size", "6"]
        )
        assert args.dataset == "dip"
        assert args.pattern_size == 6


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "roadca" in out

    def test_capabilities(self, capsys):
        assert main(["capabilities"]) == 0
        out = capsys.readouterr().out
        assert "CSCE" in out and "VEQ" in out

    def test_match_dataset(self, capsys):
        code = main(
            [
                "match",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--pattern-size",
                "4",
                "--seed",
                "1",
                "--time-limit",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "embeddings" in out

    def test_match_files(self, tmp_path, capsys):
        data = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pattern = Graph.from_edges(3, [(0, 1), (1, 2)])
        data_path, pattern_path = tmp_path / "d.graph", tmp_path / "p.graph"
        save_graph(data, data_path)
        save_graph(pattern, pattern_path)
        code = main(
            ["match", "--data", str(data_path), "--pattern", str(pattern_path)]
        )
        assert code == 0
        assert "embeddings  : 8" in capsys.readouterr().out

    def test_match_enumerate_shows_embeddings(self, tmp_path, capsys):
        data = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        pattern = Graph.from_edges(2, [(0, 1)])
        data_path, pattern_path = tmp_path / "d.graph", tmp_path / "p.graph"
        save_graph(data, data_path)
        save_graph(pattern, pattern_path)
        code = main(
            [
                "match",
                "--data",
                str(data_path),
                "--pattern",
                str(pattern_path),
                "--enumerate",
                "--show",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#0:" in out
        assert "more" in out  # 6 embeddings, 2 shown

    def test_match_requires_source(self, capsys):
        assert main(["match"]) == 2
        assert "provide --data" in capsys.readouterr().err

    def test_match_baseline_engine(self, capsys):
        code = main(
            [
                "match",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--pattern-size",
                "4",
                "--engine",
                "VEQ",
                "--time-limit",
                "30",
            ]
        )
        assert code == 0

    def test_plan_command(self, capsys):
        code = main(
            [
                "plan",
                "--dataset",
                "patent",
                "--scale",
                "0.1",
                "--pattern-size",
                "6",
                "--planner",
                "csce",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "order (Phi*)" in out and "SCE" in out

    def test_plan_pattern_file(self, tmp_path, capsys):
        data = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pattern = Graph.from_edges(3, [(0, 1), (1, 2)])
        data_path, pattern_path = tmp_path / "d.graph", tmp_path / "p.graph"
        save_graph(data, data_path)
        save_graph(pattern, pattern_path)
        code = main(
            ["plan", "--data", str(data_path), "--pattern", str(pattern_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "order (Phi*)" in out and "3 extend ops" in out

    def test_plan_requires_source(self, capsys):
        assert main(["plan"]) == 2
        assert "provide --data FILE or --dataset NAME" in capsys.readouterr().err

    def test_explain_shows_row_filters(self, tmp_path, capsys):
        import json

        # A 3-star's centre needs a row of 3 or more: only vertex 0 has one.
        data = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        data_path, pattern_path = tmp_path / "d.graph", tmp_path / "p.graph"
        save_graph(data, data_path)
        save_graph(star, pattern_path)
        args = ["explain", "--data", str(data_path), "--pattern", str(pattern_path)]
        assert main(args) == 0
        assert (
            "row filter: >= 3 in (0--0, NULL) succ, admits 1 of 7 rows"
            in capsys.readouterr().out
        )
        assert main([*args, "--json"]) == 0
        ops = json.loads(capsys.readouterr().out)["physical"]["ops"]
        assert [op["filters"] for op in ops] == [
            [{"cluster": "(0--0, NULL)", "direction": "succ", "k": 3,
              "admitted": 1, "rows": 7}],
            [], [], [],
        ]
        # A homomorphism may map two leaves to one vertex: no filter.
        assert main([*args, "--variant", "homomorphic", "--json"]) == 0
        ops = json.loads(capsys.readouterr().out)["physical"]["ops"]
        assert all(op["filters"] == [] for op in ops)

    def test_bench_command(self, capsys):
        code = main(
            [
                "bench",
                "--dataset",
                "yeast",
                "--scale",
                "0.15",
                "--sizes",
                "4",
                "--patterns",
                "1",
                "--engines",
                "CSCE",
                "--time-limit",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "averages" in out
        assert "CSCE" in out


class TestRobustnessFlags:
    """The robustness surface: --memory-limit/--checkpoint/--resume,
    lenient parsing, and the report --validate exit-code contract."""

    def _graph_file(self, tmp_path):
        from conftest import make_random_graph

        path = tmp_path / "data.graph"
        save_graph(make_random_graph(30, 80, num_labels=1, seed=2), path)
        return str(path)

    def test_parser_accepts_robustness_flags(self):
        args = build_parser().parse_args(
            ["match", "--dataset", "dip", "--memory-limit", "256",
             "--checkpoint", "ck.json", "--lenient"]
        )
        assert args.memory_limit == 256.0
        assert args.checkpoint == "ck.json"
        assert args.lenient

    def test_robustness_flags_require_csce(self, tmp_path, capsys):
        data = self._graph_file(tmp_path)
        code = main(["match", "--data", data, "--engine", "VEQ",
                     "--memory-limit", "64"])
        assert code == 2
        assert "CSCE" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        data = self._graph_file(tmp_path)
        ck = str(tmp_path / "ck.json")
        code = main(["match", "--data", data, "--pattern-size", "4",
                     "--limit", "3", "--checkpoint", ck])
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped: embedding_limit" in out
        assert "(written)" in out
        code = main(["match", "--data", data, "--resume", ck])
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped" not in out

    def test_resume_keeps_the_checkpointed_query(self, tmp_path, capsys):
        # The query comes from the checkpoint, not from the flags: a
        # homomorphic stream checkpoint resumes to the homomorphic total
        # on the stream and on the pool alike.
        import json
        import shutil

        data = self._graph_file(tmp_path)
        common = ["match", "--data", data, "--json"]
        assert main([*common, "--pattern-size", "4", "--variant",
                     "homomorphic"]) == 0
        full = json.loads(capsys.readouterr().out)
        ck = tmp_path / "ck.json"
        assert main([*common, "--pattern-size", "4", "--variant",
                     "homomorphic", "--limit", "3",
                     "--checkpoint", str(ck)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3
        pool_ck = tmp_path / "pool-ck.json"
        shutil.copy(ck, pool_ck)
        assert main([*common, "--resume", str(ck)]) == 0
        streamed = json.loads(capsys.readouterr().out)
        report = tmp_path / "report.json"
        assert main([*common, "--resume", str(pool_ck), "--workers", "2",
                     "--report", str(report)]) == 0
        pooled = json.loads(capsys.readouterr().out)
        for resumed in (streamed, pooled):
            assert resumed["variant"] == full["variant"] == "homomorphic"
            assert resumed["count"] == full["count"]
            assert resumed["stop_reason"] is None
        assert json.loads(report.read_text())["plan"]["variant"] == (
            "homomorphic"
        )

    def test_resume_refuses_mutated_data(self, tmp_path, capsys):
        from conftest import make_random_graph

        data = self._graph_file(tmp_path)
        ck = str(tmp_path / "ck.json")
        assert main(["match", "--data", data, "--pattern-size", "4",
                     "--limit", "3", "--checkpoint", ck]) == 0
        capsys.readouterr()
        mutated = tmp_path / "mutated.graph"
        save_graph(make_random_graph(31, 80, num_labels=1, seed=2), mutated)
        code = main(["match", "--data", str(mutated), "--resume", ck])
        assert code == 2
        assert "store" in capsys.readouterr().err

    def test_lenient_data_file(self, tmp_path, capsys):
        path = tmp_path / "dirty.graph"
        path.write_text("t 3 2\nv 0 0\nv 1 0\nv 2 0\ne 0 1\nbroken\ne 1 2\n")
        with pytest.raises(Exception):
            main(["match", "--data", str(path), "--pattern-size", "3"])
        capsys.readouterr()
        code = main(["match", "--data", str(path), "--pattern-size", "3",
                     "--lenient"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped 1 malformed" in captured.err

    def test_validate_flags_robustness_fields_exit_2(self, tmp_path, capsys):
        import json

        data = self._graph_file(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert main(["match", "--data", data, "--pattern-size", "4",
                     "--trace", "--report", report_path]) == 0
        capsys.readouterr()
        assert main(["report", report_path, "--validate"]) == 0
        capsys.readouterr()
        doc = json.loads(open(report_path).read())
        doc["stop_reason"] = "cosmic_rays"
        open(report_path, "w").write(json.dumps(doc))
        assert main(["report", report_path, "--validate"]) == 2
        assert "cosmic_rays" in capsys.readouterr().err
        # A structural (schema) problem stays exit 1.
        del doc["stop_reason"], doc["count"]
        open(report_path, "w").write(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", report_path, "--validate"]) == 1

    def test_validate_rejects_a_bench_history_document(self, tmp_path, capsys):
        # The retired bench-history format is not a run-report: it fails
        # the schema check (exit 1) instead of passing a second validator.
        import json

        path = tmp_path / "BENCH_smoke.json"
        path.write_text(json.dumps({
            "format": "repro-bench-history",
            "version": 1,
            "figure": "smoke",
            "machine": {"calibration_seconds": 0.011},
            "configs": [{
                "key": "CSCE|yeast|edge_induced|size=6|dense-6#0",
                "n": 1,
                "embeddings": 2.0,
                "total_seconds": 0.0011,
                "execute_seconds": 0.0003,
            }],
        }))
        assert main(["report", str(path), "--validate"]) == 1
        assert "invalid run-report" in capsys.readouterr().err
