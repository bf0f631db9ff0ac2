#!/usr/bin/env python
"""Documentation lint: intra-repo links, public-symbol docstrings, the
class members, the dotted module paths and the CLI flags the docs name.

Five checks, all cheap enough for every CI run:

1. **Links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at a file that exists (anchors and external
   ``http(s)``/``mailto`` links are skipped). A docs "site" whose map
   rots is worse than none.
2. **Docstrings** — every public symbol exported by a package in
   :data:`DOC_PACKAGES` (its ``__all__``), and every module in those
   packages, must carry a docstring. New subsystems land with their
   documentation or not at all.
3. **Members** — every backticked ``Class.member`` (or
   ``Class.member(...)``) in ``README.md`` and ``docs/*.md`` whose
   ``Class`` is a class defined in ``repro`` must name an attribute that
   class has (``hasattr``, or a dataclass field). A doc that still names
   a removed method or property is caught the day it goes stale.
4. **Dotted paths** — every backticked ``repro.…`` path in the same
   files must resolve: its longest prefix that is a module imports, and
   each remaining name is an attribute of what came before. A doc that
   names a deleted module or a moved function is caught the same way.
5. **CLI flags** — every ``--flag`` in a backticked span or a fenced
   code block of ``docs/cli.md`` must be an option of some subcommand of
   ``repro.cli.build_parser()``. A renamed or removed flag cannot linger
   in the reference.

Exit code 0 when clean; 1 with a problem list otherwise. Run from the
repo root: ``python tools/check_docs.py`` (``src/`` is put on the path
automatically).
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Markdown files whose relative links must resolve.
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

#: Packages whose public surface must be documented.
DOC_PACKAGES = (
    "repro.analysis",
    "repro.core",
    "repro.engine",
    "repro.filters",
    "repro.lsm",
    "repro.net",
    "repro.succinct",
    "repro.workloads",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A backticked span that starts ``Class.member``.
_MEMBER = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)[^`]*`")
#: A backticked span that starts with a dotted ``repro.…`` path.
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
#: The CLI reference, whose flags must exist.
CLI_DOC = REPO_ROOT / "docs" / "cli.md"
_CODE_SPAN = re.compile(r"`([^`]+)`")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def check_links() -> list[str]:
    problems = []
    for md in DOC_FILES:
        if not md.exists():
            problems.append(f"{md.relative_to(REPO_ROOT)}: file missing")
            continue
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO_ROOT)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return problems


def check_docstrings() -> list[str]:
    problems = []
    for package_name in DOC_PACKAGES:
        package = importlib.import_module(package_name)
        # Every module in the package carries a module docstring.
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            if not (module.__doc__ or "").strip():
                problems.append(f"{module.__name__}: missing module docstring")
        # Every exported symbol is documented.
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name, None)
            if obj is None:
                problems.append(f"{package_name}.{name}: in __all__ but missing")
                continue
            if isinstance(obj, (int, str, float, dict, list, tuple)):
                continue  # constants document themselves at the definition
            if not (getattr(obj, "__doc__", None) or "").strip():
                problems.append(f"{package_name}.{name}: missing docstring")
    return problems


def repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by name."""
    import repro

    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def _has_member(cls: type, name: str) -> bool:
    return hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {})


def check_members(doc_files=DOC_FILES) -> list[str]:
    classes = repro_classes()
    problems = []
    for md in doc_files:
        if not md.exists():
            continue  # check_links reports it
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for cls_name, member in _MEMBER.findall(line):
                candidates = classes.get(cls_name)
                if candidates and not any(
                    _has_member(cls, member) for cls in candidates
                ):
                    problems.append(
                        f"{md.name}:{lineno}: `{cls_name}.{member}` names no "
                        f"member of {cls_name}"
                    )
    return problems


def resolves(path: str) -> bool:
    """Whether a dotted ``repro.…`` path names a module or an attribute
    reachable from one."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and (name + ".").startswith(exc.name + "."):
                continue  # this prefix is not a module; try a shorter one
            raise
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_paths(doc_files=DOC_FILES) -> list[str]:
    problems = []
    for md in doc_files:
        if not md.exists():
            continue  # check_links reports it
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for path in _DOTTED.findall(line):
                if not resolves(path):
                    problems.append(
                        f"{md.name}:{lineno}: `{path}` does not resolve"
                    )
    return problems


def cli_flags() -> set[str]:
    """Every option string of every ``repro`` subcommand."""
    from repro.cli import build_parser

    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        flag
        for parser in sub.choices.values()
        for action in parser._actions
        for flag in action.option_strings
    }


def check_cli_flags(doc: Path = CLI_DOC) -> list[str]:
    flags = cli_flags()
    problems = []
    fenced = False
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        for code in [line] if fenced else _CODE_SPAN.findall(line):
            for flag in _FLAG.findall(code):
                if flag not in flags:
                    problems.append(
                        f"{doc.name}:{lineno}: `{flag}` is no option of any "
                        "repro subcommand"
                    )
    return problems


def main() -> int:
    problems = (
        check_links() + check_docstrings() + check_members()
        + check_dotted_paths() + check_cli_flags()
    )
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = ", ".join(str(p.relative_to(REPO_ROOT)) for p in DOC_FILES)
    print(f"check_docs: OK ({checked}; {', '.join(DOC_PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
