"""Tests for the documentation lint's member, dotted-path and CLI-flag
checks (``tools/check_docs.py``).

A backticked ``Class.member`` in the docs whose class is a ``repro``
class must name a member that class still has, a backticked
``repro.…`` path must import, and a ``--flag`` the CLI reference names
must be an option of some subcommand; each check must flag a stale name
and stay quiet on the repository's own docs.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_member_check_flags_a_stale_name(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Read with `SSTable.scan(lo, hi)`; mark blocks with `BlockCache.touch`.\n"
        "Stale: `SSTable.release()` and `BlockCache.get_block`.\n"
        "`IoStats.cache_hits` is a field; `Unknown.thing` is no repro class.\n"
    )
    problems = check_docs.check_members([doc])
    assert len(problems) == 2, problems
    assert problems[0].startswith("doc.md:2: `SSTable.release`")
    assert problems[1].startswith("doc.md:2: `BlockCache.get_block`")


def test_member_check_passes_on_the_repo_docs():
    assert check_docs.check_members() == []


def test_dotted_path_check_flags_a_stale_path(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Live: `repro.engine.persist`, `repro.CorruptionError` and\n"
        "`repro.filters.registry.FilterSpec.from_params(params)`.\n"
        "Stale: `repro.core.serialization` and `repro.engine.persist.filter_to_bytes`.\n"
    )
    problems = check_docs.check_dotted_paths([doc])
    assert problems == [
        "doc.md:3: `repro.core.serialization` does not resolve",
        "doc.md:3: `repro.engine.persist.filter_to_bytes` does not resolve",
    ]


def test_dotted_path_check_passes_on_the_repo_docs():
    assert check_docs.check_dotted_paths() == []


def test_cli_flag_check_flags_a_stale_flag(tmp_path):
    doc = tmp_path / "cli.md"
    doc.write_text(
        "Live: `--dataset/--n/--seed`, `--no-plan` and `--mode {thread,process}`;\n"
        "stale: `--shard-count 4` and `serve --cache-size`. Prose --ignored.\n"
        "```bash\n"
        "python -m repro serve --threads 4 --pool 2\n"
        "```\n"
    )
    assert check_docs.check_cli_flags(doc) == [
        "cli.md:2: `--shard-count` is no option of any repro subcommand",
        "cli.md:2: `--cache-size` is no option of any repro subcommand",
        "cli.md:4: `--pool` is no option of any repro subcommand",
    ]


def test_cli_flag_check_passes_on_the_cli_reference():
    assert check_docs.check_cli_flags() == []
