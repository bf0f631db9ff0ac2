"""Tests for the ``python -m repro`` command-line interface."""

import io
import re
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


class TestFullUniverse:
    """The query-drawing commands run at a 2^64 universe."""

    @pytest.mark.parametrize("argv", [
        ["fpr", "--queries", "100"],
        ["attack", "--rounds", "2", "--queries-per-round", "50"],
        ["engine", "--batches", "2", "--batch-size", "200"],
    ])
    def test_universe_bits_64(self, argv):
        code, _ = run_cli(argv + ["--universe-bits", "64", "--n", "500"])
        assert code == 0


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
        ["engine", "--bits-per-key", "nan"],
        ["engine", "--bits-per-key", "inf"],
        ["engine", "--filter", "proteus", "--bits-per-key", "nan"],
        ["engine", "--filter", "bucketing", "--bits-per-key", "inf"],
        ["engine", "--bits-per-key", "1e6"],
        ["engine", "--filter", "snarf", "--bits-per-key", "64.5"],
        ["loadgen", "--connect", "127.0.0.1:9", "--arrivals", "bursty",
         "--burst-period", "0"],
        ["loadgen", "--connect", "127.0.0.1:9", "--retries", "-1"],
        ["loadgen", "--connect", "127.0.0.1:9", "--universe-bits", "65"],
        ["scenarios", "no-such-scenario"],
        ["scenarios", "--mode", "bogus"],
        ["scenarios", "--mode", "net", "string-keys"],
        *(
            [command, flag, address]
            for command, flag in (("loadgen", "--connect"), ("serve", "--listen"))
            for address in (
                "127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:-5",
                "127.0.0.1:http", "nonsense",
            )
        ),
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
        # Flip one byte mid-file — inside a column covered by a
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


def _table_rows(out, masked=()):
    """``(label, value)`` for each ``label | value`` row of a report table.

    Rates (``... op/s``, ``... q/s``) read as ``*``, and so does the whole
    value of each label in ``masked``: both vary from run to run.
    """
    rows = []
    for line in out.splitlines():
        label, sep, value = line.partition(" | ")
        if not sep or line.startswith("metric "):
            continue
        label, value = label.strip(), value.strip()
        value = "*" if label in masked else re.sub(r"[\d,]+ (op|q)/s", r"* \1/s", value)
        rows.append((label, value))
    return rows


def _summary_fields(out, tag):
    """The ``key=`` names of each ``[tag] key=value ...`` line, in order."""
    return [
        [field.split("=", 1)[0] for field in line.split()[1:]]
        for line in out.splitlines()
        if line.startswith(f"[{tag}] ")
    ]


class TestCharacterisation:
    """Pins, for fixed seeds, the stdout each command prints: the whole
    report of the deterministic commands, and the report rows and
    summary-line fields of the workload commands with their timing
    (and, for ``serve``, thread-interleaving) cells masked."""

    SMALL = ["--n", "2000", "--universe-bits", "40", "--seed", "7"]
    WORKLOAD = ["--batches", "2", "--batch-size", "300", "--writes-per-batch",
                "100", "--memtable-limit", "256", "--shards", "2"] + SMALL

    def stdout_lines(self, argv):
        code, out = run_cli(argv)
        assert code == 0
        return [line.rstrip() for line in out.splitlines()]

    def test_dataset(self):
        assert self.stdout_lines(["dataset", "--dataset", "books"] + self.SMALL) == [
            "dataset 'books'",
            "statistic              | value",
            "-----------------------+-------------------------------",
            "keys                   | 2,000",
            "universe               | 2^40",
            "min / max              | 72,682,716 / 1,099,511,627,775",
            "mean gap               | 549,994,469.8",
            "median gap             | 84,669,225.0",
            "max gap                | 28,901,770,401.0",
            "gap skew (mean/median) | 6.5",
        ]

    def test_table1(self):
        argv = ["table1", "--n", "1000000", "--universe-bits", "40",
                "--range-size", "64", "--eps", "0.02"]
        assert self.stdout_lines(argv) == [
            "Table 1 at n=1,000,000, L=64, eps=0.02",
            "structure            | class       | space formula                       | bits/key | query time",
            "---------------------+-------------+-------------------------------------+----------+--------------------------",
            "SuRF                 | heuristic   | (10+m)n + 10z + o(n+z)              | -        | O(log u)",
            "SNARF                | heuristic   | n log K + 2.4n                      | 14.04    | Omega(log n)",
            "Proteus              | heuristic   | ?                                   | -        | ?",
            "bloomRF              | heuristic   | ?                                   | -        | O(log(u/n))",
            "Bucketing            | heuristic   | t log(u/(t s)) + 2t + o(t)          | -        | O(log(u/(t s)))",
            "Theoretical baseline | fpr-bounded | n log(L/eps) + O(n)                 | 13.08    | O(L)",
            "Goswami et al.       | fpr-bounded | n log(L/eps) + 3n + o(n log(L/eps)) | 14.64    | O(log(nL/eps)/w)",
            "Rosetta              | fpr-bounded | 1.44 n log(L/eps)                   | 16.77    | Omega(log L * log(2-eps))",
            "Grafite              | fpr-bounded | n log(L/eps) + 2n + o(n)            | 13.64    | O(log(L/eps))",
            "Lower bound          | bound       | n log(L^(1-O(eps))/eps) - O(n)      | 11.52    | -",
        ]

    def test_attack(self):
        argv = ["attack", "--filter", "Rosetta", "--bits-per-key", "10",
                "--rounds", "3", "--queries-per-round", "200"] + self.SMALL
        assert self.stdout_lines(argv) == [
            "adaptive attack on Rosetta",
            "round         | FPR (backend reads / probe)",
            "--------------+----------------------------",
            "round 1       | 0.2750",
            "round 2       | 0.3600",
            "round 3       | 0.4350",
            "amplification | 1.58x",
        ]

    def test_engine(self):
        code, out = run_cli(["engine"] + self.WORKLOAD)
        assert code == 0
        assert out.startswith("sharded engine workload\n")
        assert _table_rows(out) == [
            ("universe / shards", "2^40 / 2"),
            ("filter", "grafite"),
            ("planner", "600 queries -> 600 probes; 0 dups folded; negcache 0.0% hit"),
            ("live keys", "2,176"),
            ("runs (filter bits)", "2 (32,000)"),
            ("bulk load", "2,000 puts, * op/s"),
            ("mixed writes", "200 ops, * op/s"),
            ("batch probes", "600 (2 x 300), * q/s"),
            ("empty ranges", "600 / 600"),
            ("reads performed / avoided", "0 / 600"),
            ("wasted reads (filter FPs)", "0"),
            ("flushes / compaction steps", "9 / 2 (full)"),
            ("write amplification",
             "2.00x (2,000 compacted / 2,000 flushed entries, 32,000 bytes rewritten)"),
            ("durability", "in-memory"),
        ]
        assert _summary_fields(out, "engine") == [[
            "compaction", "probe_qps", "compaction_steps", "entries_compacted",
            "bytes_compacted", "write_amp",
        ]]

    def test_serve(self):
        code, out = run_cli(["serve", "--threads", "2"] + self.WORKLOAD)
        assert code == 0
        assert out.startswith("concurrent serving workload\n")
        # Background compaction races the probe batches, so the I/O
        # ledger and the compaction counts vary between runs.
        racy = {
            "runs (filter bits)", "reads performed / avoided",
            "wasted reads (filter FPs)", "flushes / compaction steps",
            "write amplification", "background compactions", "block cache",
        }
        assert _table_rows(out, masked=racy) == [
            ("universe / shards", "2^40 / 2"),
            ("mode / threads / workers", "thread / 2 / 0"),
            ("filter", "grafite"),
            ("planner", "600 queries -> 600 probes; 0 dups folded; negcache 0.0% hit"),
            ("live keys", "2,176"),
            ("runs (filter bits)", "*"),
            ("bulk load", "2,000 puts, * op/s"),
            ("mixed writes", "200 ops, * op/s"),
            ("batch probes", "600 (2 x 300), * q/s"),
            ("empty ranges", "600 / 600"),
            ("reads performed / avoided", "*"),
            ("wasted reads (filter FPs)", "*"),
            ("flushes / compaction steps", "*"),
            ("write amplification", "*"),
            ("durability", "in-memory"),
            ("background compactions", "*"),
            ("block cache", "*"),
        ]
        assert _summary_fields(out, "serve") == [[
            "mode", "threads", "workers", "probe_qps", "cache_hit_rate",
            "negcache_hit_rate", "worker_queries", "local_queries", "compaction",
            "compaction_steps", "entries_compacted", "write_amp",
        ]]

    def test_scenarios_summary_fields(self):
        code, out = run_cli(["scenarios", "read-heavy", "--mode", "engine",
                             "--scale", "0.05", "--seed", "3"])
        assert code == 0
        assert _summary_fields(out, "scenarios") == [
            ["scenario", "mode", "seed", "ops", "checks", "mismatches",
             "final_match", "fpr", "probe_p99_ms", "ttl_now", "live_keys", "ok"],
            ["runs", "failures", "ok"],
        ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli([])
