"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_all_experiment_ids_accepted(self):
        parser = build_parser()
        for exp_id in list(EXPERIMENTS) + ["all"]:
            args = parser.parse_args(["experiment", exp_id])
            assert args.id == exp_id


class TestMetadataPlaneFlags:
    def test_serve_flags_accepted(self):
        args = build_parser().parse_args(
            ["serve", "--journal-replicas", "3", "--leader-crash",
             "--journal-crash", "--meta-partition",
             "--retry-jitter", "full", "--retry-max-elapsed", "30"]
        )
        assert args.journal_replicas == 3
        assert args.leader_crash and args.journal_crash and args.meta_partition
        assert args.retry_jitter == "full"
        assert args.retry_max_elapsed == 30.0

    def test_chaos_flags_accepted(self):
        args = build_parser().parse_args(
            ["chaos", "--retry-jitter", "full", "--retry-max-elapsed", "5",
             "--journal-replicas", "3", "--leader-crash"]
        )
        assert args.retry_jitter == "full"
        assert args.journal_replicas == 3

    def test_bad_jitter_mode_rejected_at_parse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--retry-jitter", "gaussian"])

    def test_negative_retry_budget_is_typed_error(self, capsys):
        assert main(["serve", "--retry-max-elapsed", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_journal_replicas_is_typed_error(self, capsys):
        assert main(["serve", "--journal-replicas", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_journal_crash_needs_replicas(self, capsys):
        assert main(["serve", "--journal-crash"]) == 2
        assert "journal_replicas" in capsys.readouterr().err

    def test_leader_crash_drill_prints_digests(self, capsys):
        assert main(
            ["serve", "--jobs", "8", "--nodes", "8", "--appends", "1",
             "--journal-replicas", "3", "--leader-crash"]
        ) == 0
        out = capsys.readouterr().out
        assert "leadership changes" in out
        assert "metadata digest" in out
        assert "layout digest: " in out
        assert "3 journal replicas" in out


class TestInfo:
    def test_lists_experiments(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out


class TestTheory:
    def test_prints_fig2(self, capsys):
        assert main(["theory", "--trials", "5"]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestGenerateAndIndex:
    def test_roundtrip(self, tmp_path, capsys):
        tsv = tmp_path / "data.tsv"
        assert main(
            ["generate", "movielens", "-n", "2000", "-k", "50", "-o", str(tsv)]
        ) == 0
        assert tsv.exists()
        lines = tsv.read_text().strip().splitlines()
        assert len(lines) > 1000
        assert lines[0].count("\t") == 2

        assert main(["index", str(tsv), "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "ElasticMap" in out
        assert "representation ratio" in out

    def test_index_with_query(self, tmp_path, capsys):
        tsv = tmp_path / "data.tsv"
        main(["generate", "movielens", "-n", "1000", "-k", "20", "-o", str(tsv)])
        assert main(
            ["index", str(tsv), "--nodes", "4", "--query", "movie-00000"]
        ) == 0
        out = capsys.readouterr().out
        assert "movie-00000" in out
        assert "Eq. 6" in out

    def test_generate_github(self, tmp_path):
        tsv = tmp_path / "gh.tsv"
        assert main(["generate", "github", "-n", "500", "-o", str(tsv)]) == 0
        assert "Event" in tsv.read_text()

    def test_generate_worldcup(self, tmp_path):
        tsv = tmp_path / "wc.tsv"
        assert main(["generate", "worldcup", "-n", "500", "-k", "8", "-o", str(tsv)]) == 0
        assert "match-" in tsv.read_text()

    def test_index_missing_file_errors(self, capsys):
        assert main(["index", "/nonexistent/file.tsv"]) == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_small_fig1_runs_and_saves(self, tmp_path, capsys):
        assert main(
            ["experiment", "fig1", "--small", "--out", str(tmp_path)]
        ) == 0
        assert "Figure 1" in capsys.readouterr().out
        assert (tmp_path / "fig1.txt").exists()

    def test_small_table2(self, capsys):
        assert main(["experiment", "table2", "--small"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestSimulateAndPlan:
    def test_simulate_small(self, capsys):
        assert main(["simulate", "--small", "--rows", "3", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "Concurrent batch" in out
        assert "legend" in out

    def test_plan(self, capsys):
        assert main(
            ["plan", "--blocks", "64", "--subdatasets", "500",
             "--nodes", "32", "--budget", "4mb"]
        ) == 0
        assert "Capacity plan" in capsys.readouterr().out

    def test_plan_impossible_budget_errors(self, capsys):
        assert main(
            ["plan", "--blocks", "5000", "--subdatasets", "5000",
             "--nodes", "32", "--budget", "1kb"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    _BASE = ["trace", "--nodes", "4", "-n", "3000", "-k", "30"]

    def _artifacts(self, out_dir):
        return sorted(p.name for p in out_dir.iterdir())

    def test_fault_free_trace_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace_file

        out = tmp_path / "obs"
        assert main(self._BASE + ["--out", str(out)]) == 0
        assert self._artifacts(out) == [
            "events.jsonl", "metrics.txt", "trace.json",
        ]
        assert validate_chrome_trace_file(str(out / "trace.json")) > 0
        stdout = capsys.readouterr().out
        assert "traced job" in stdout and "trace.json valid" in stdout

    @pytest.mark.parametrize("workload", ["movielens", "github", "worldcup"])
    def test_all_workload_families_exit_zero(self, tmp_path, workload):
        out = tmp_path / workload
        args = self._BASE + ["--workload", workload, "--out", str(out)]
        if workload == "worldcup":
            args += ["-k", "8"]
        assert main(args) == 0
        assert (out / "trace.json").exists()

    def test_chaos_path_traces_attempts(self, tmp_path, capsys):
        import json

        out = tmp_path / "obs"
        assert main(
            self._BASE + ["--out", str(out), "--flaky", "0.2"]
        ) == 0
        assert "traced chaos run" in capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        categories = {
            r.get("category") for r in rows if r["type"] == "span"
        }
        assert "attempt" in categories and "run" in categories
        assert "spans[attempt]" in (out / "metrics.txt").read_text()

    def test_obs_flag_on_chaos(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(
            ["chaos", "--nodes", "4", "-n", "3000", "-k", "30",
             "--flaky", "0.2", "--obs", str(out)]
        ) == 0
        assert (out / "trace.json").exists()
        assert (out / "events.jsonl").exists()
        assert "observability artifacts" in capsys.readouterr().out

    def test_obs_flag_on_scrub(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(
            ["scrub", "--nodes", "4", "-n", "2000", "-k", "30",
             "--corrupt", "2", "--obs", str(out)]
        ) == 0
        assert "scrub_corrupt_found_total" in (out / "metrics.txt").read_text()

    def test_obs_flag_on_simulate(self, tmp_path):
        from repro.obs.export import validate_chrome_trace_file

        out = tmp_path / "obs"
        assert main(
            ["simulate", "--small", "--rows", "2", "--width", "40",
             "--obs", str(out)]
        ) == 0
        assert validate_chrome_trace_file(str(out / "trace.json")) > 0


class TestDefaultTarget:
    """Without ``--sub``, ``chaos`` and ``trace`` target the largest
    sub-dataset, sized in one pass over the blocks."""

    @pytest.mark.parametrize("command", ["chaos", "trace"])
    def test_sizes_each_block_at_most_once(
        self, command, tmp_path, monkeypatch, capsys
    ):
        from repro.hdfs.block import Block
        from repro.hdfs.cluster import HDFSCluster

        sized = []
        size_block = Block.subdataset_sizes
        written = []
        write = HDFSCluster.write_dataset

        def counted(self):
            sized.append(self.block_id)
            return size_block(self)

        def recorded(self, *args, **kwargs):
            written.append(write(self, *args, **kwargs))
            return written[-1]

        monkeypatch.setattr(Block, "subdataset_sizes", counted)
        monkeypatch.setattr(HDFSCluster, "write_dataset", recorded)
        argv = [command, "-n", "3000", "-k", "40", "--seed", "1"]
        if command == "trace":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 0
        (dataset,) = written
        assert 0 < len(sized) <= dataset.num_blocks

    def test_ties_go_to_the_smaller_id(self):
        from repro import HDFSCluster, Record
        from repro.cli import _largest_subdataset

        cluster = HDFSCluster(num_nodes=3, block_size=4096)
        dataset = cluster.write_dataset(
            "tie",
            [Record("b", 0.0, "xx"), Record("a", 1.0, "xx"), Record("c", 2.0, "x")],
        )
        sizes = dataset.subdataset_sizes()
        assert list(sizes) == ["b", "a", "c"] and sizes["a"] == sizes["b"]
        assert _largest_subdataset(dataset) == "a"
