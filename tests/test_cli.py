"""Tests for the ``python -m repro`` command-line interface."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


COMMON = ["--n", "2000", "--universe-bits", "40", "--seed", "7"]


class TestDatasetCommand:
    @pytest.mark.parametrize("name", ["uniform", "books", "osm", "fb", "normal"])
    def test_describes_each_dataset(self, name):
        code, out = run_cli(["dataset", "--dataset", name] + COMMON)
        assert code == 0
        assert "keys" in out and "2,000" in out

    def test_deterministic(self):
        _, a = run_cli(["dataset"] + COMMON)
        _, b = run_cli(["dataset"] + COMMON)
        assert a == b


class TestFprCommand:
    def test_grafite_uncorrelated(self):
        code, out = run_cli(
            ["fpr", "--filter", "Grafite", "--queries", "200"] + COMMON
        )
        assert code == 0
        assert "FPR" in out and "query time" in out

    def test_correlated_degree(self):
        code, out = run_cli(
            ["fpr", "--filter", "Bucketing", "--workload", "correlated",
             "--degree", "1.0", "--queries", "100"] + COMMON
        )
        assert code == 0
        assert "(D=1.0)" in out

    def test_sample_dependent_filter(self):
        code, out = run_cli(
            ["fpr", "--filter", "Proteus", "--queries", "100"] + COMMON
        )
        assert code == 0

    def test_unknown_filter_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["fpr", "--filter", "Nope"] + COMMON)


class TestAttackCommand:
    def test_attack_grafite(self):
        code, out = run_cli(
            ["attack", "--filter", "Grafite", "--rounds", "2",
             "--queries-per-round", "50"] + COMMON
        )
        assert code == 0
        assert "round 1" in out and "amplification" in out

    def test_attack_heuristic_locks_on(self):
        code, out = run_cli(
            ["attack", "--filter", "Bucketing", "--rounds", "2",
             "--queries-per-round", "50", "--bits-per-key", "12"] + COMMON
        )
        assert code == 0
        # Bucketing under key-adjacent probes: round FPRs near 1.
        round1 = next(l for l in out.splitlines() if "round 1" in l)
        assert float(round1.split("|")[1].strip()) > 0.5


class TestTable1Command:
    def test_prints_paper_parameters(self):
        code, out = run_cli(["table1"])
        assert code == 0
        assert "Grafite" in out and "Lower bound" in out

    def test_custom_parameters(self):
        code, out = run_cli(
            ["table1", "--n", "1000", "--range-size", "32", "--eps", "0.1"]
        )
        assert code == 0
        assert "eps=0.1" in out


class TestEngineCommand:
    ENGINE_ARGS = ["engine", "--n", "1000", "--batches", "2", "--batch-size", "200",
                   "--writes-per-batch", "50", "--memtable-limit", "128"] + COMMON

    def test_mixed_workload_in_memory(self):
        code, out = run_cli(self.ENGINE_ARGS)
        assert code == 0
        assert "batch probes" in out and "reads performed / avoided" in out
        assert "in-memory" in out

    def test_unfiltered_engine(self):
        code, out = run_cli(self.ENGINE_ARGS + ["--filter", "none"])
        assert code == 0
        assert "runs (filter bits)" in out

    def test_persistent_engine(self, tmp_path):
        code, out = run_cli(self.ENGINE_ARGS + ["--dir", str(tmp_path / "db")])
        assert code == 0
        assert str(tmp_path / "db") in out
        assert (tmp_path / "db" / "MANIFEST.json").exists()


class TestServeCommand:
    SERVE_ARGS = ["serve", "--batches", "2", "--batch-size", "200",
                  "--writes-per-batch", "50", "--memtable-limit", "128",
                  "--threads", "2"] + COMMON

    def test_thread_mode_in_memory(self):
        code, out = run_cli(self.SERVE_ARGS + ["--n", "1000"])
        assert code == 0
        assert "concurrent serving workload" in out
        assert any(
            line.startswith("[serve] mode=thread ") for line in out.splitlines()
        )

    def test_process_mode_needs_a_directory(self, capsys):
        assert run_cli(self.SERVE_ARGS + ["--mode", "process"])[0] == 2
        assert "--mode process needs --dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["engine", "--shards", "0"],
        ["engine", "--fanout", "1"],
        ["engine", "--writes-per-batch", "-1"],
        ["engine", "--bits-per-key", "0"],
        ["engine", "--range-size", "0"],
        ["engine", "--memtable-limit", "0"],
        ["engine", "--batch-size", "0"],
        ["serve", "--threads", "0"],
        ["serve", "--cache-blocks", "-1"],
        ["serve", "--shards", "0"],
        ["serve", "--writes-per-batch", "-1"],
        ["attack", "--rounds", "0"],
        ["attack", "--range-size", "0"],
        ["attack", "--queries-per-round", "0"],
        ["attack", "--leaked-fraction", "2"],
        ["fpr", "--bits-per-key", "0"],
        ["fpr", "--range-size", "0"],
        ["fpr", "--queries", "0"],
        ["dataset", "--n", "0"],
        ["scenarios", "--scale", "0"],
        ["scenarios", "--scale", "-1"],
        ["table1", "--eps", "1.5"],
        ["table1", "--eps", "0"],
        ["table1", "--eps", "1"],
        ["table1", "--eps", "-0.5"],
        ["table1", "--eps", "nan"],
        ["table1", "--n", "0"],
        ["table1", "--n", "-3"],
        ["table1", "--range-size", "0"],
        ["table1", "--range-size", "-1"],
        ["engine", "--batches", "-1"],
        ["serve", "--batches", "-1"],
        ["engine", "--universe-bits", "65"],
        ["engine", "--universe-bits", "0"],
        ["fpr", "--universe-bits", "65"],
        ["dataset", "--universe-bits", "-3"],
        ["attack", "--universe-bits", "0"],
        ["table1", "--universe-bits", "0"],
        ["table1", "--universe-bits", "-3"],
    ],
    ids=" ".join,
)
def test_out_of_domain_parameter_is_a_one_line_usage_error(argv, capsys):
    # The commands that build keys get a small --n; argparse keeps the last
    # occurrence of an option, so the commands whose --n is under test, or
    # that have none, get nothing appended.
    small = [] if argv[0] in ("dataset", "scenarios", "table1") else ["--n", "500"]
    code, _ = run_cli(argv + small)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("repro: error: ")


@pytest.mark.parametrize("port", ["70000", "65536", "-5", "http"])
@pytest.mark.parametrize(
    "argv",
    [["loadgen", "--connect"], ["serve", "--listen"]],
    ids=["loadgen-connect", "serve-listen"],
)
def test_out_of_range_port_is_rejected(argv, port):
    with pytest.raises(SystemExit, match="expected HOST:PORT"):
        run_cli(argv + [f"127.0.0.1:{port}"] + COMMON)


class TestScrubCommand:
    ENGINE_ARGS = TestEngineCommand.ENGINE_ARGS

    def build_db(self, tmp_path):
        directory = tmp_path / "db"
        code, _ = run_cli(self.ENGINE_ARGS + ["--dir", str(directory)])
        assert code == 0
        return directory

    def test_clean_directory_verifies(self, tmp_path):
        directory = self.build_db(tmp_path)
        code, out = run_cli(["scrub", "--dir", str(directory)])
        assert code == 0
        assert "intact" in out
        assert "ok=true" in out

    def test_flipped_block_byte_fails_scrub_and_names_the_run(self, tmp_path):
        directory = self.build_db(tmp_path)
        victim = max(directory.glob("shard-*/*.sst"), key=lambda p: p.stat().st_size)
        buf = bytearray(victim.read_bytes())
        # Flip one byte mid-file — inside a column covered by a v4
        # per-block crc, far past the header and checksum arrays.
        buf[len(buf) // 2] ^= 0xFF
        victim.write_bytes(bytes(buf))

        code, out = run_cli(["scrub", "--dir", str(directory)])
        assert code == 1
        assert "CORRUPT" in out
        assert victim.name in out  # the report names the damaged file

    def test_json_report_counts_corrupt_runs(self, tmp_path):
        import json

        directory = self.build_db(tmp_path)
        victim = max(directory.glob("shard-*/*.sst"), key=lambda p: p.stat().st_size)
        buf = bytearray(victim.read_bytes())
        buf[len(buf) // 2] ^= 0xFF
        victim.write_bytes(bytes(buf))

        code, out = run_cli(["scrub", "--dir", str(directory), "--json"])
        assert code == 1
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["ok"] is False
        assert report["runs_corrupt"] >= 1
        assert any(victim.name in issue for issue in report["errors"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli([])
