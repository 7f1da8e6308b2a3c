#!/usr/bin/env python
"""Fail CI when the documentation references code that does not exist.

Scans the Markdown documentation for two kinds of references and checks
each against the working tree:

* dotted module/attribute references such as ``repro.parallel.cache`` or
  ``repro.lsu.unit.LoadStoreUnit`` — some prefix of the dotted path must
  resolve to a real module file or package under ``src/repro``, and when
  the deepest such prefix is a package, the next component must be one
  of its submodules or a name its ``__init__.py`` binds (``ROADMAP.md``
  excepted — it names planned modules);
* backticked repository paths such as ``docs/PERFORMANCE.md`` or
  ``src/repro/pipeline/core.py`` (an optional ``::test`` suffix is
  ignored) — the file or directory must exist.

It also checks the reverse direction for two registries: every CLI
subcommand registered in ``src/repro/cli.py`` (every
``add_parser("name")`` call) must be mentioned as ``repro <name>``
somewhere in ``README.md`` and, conversely, every ``| `repro <name>`…``
row of the README command table must name a registered subcommand; every
generator knob declared in ``src/repro/gen/knobs.py`` (every
``KnobSpec(name="...")``) must appear backticked in
``docs/GENERATOR.md`` — so no subcommand or knob can ship undocumented,
and no deleted subcommand can linger in the table.  Likewise every
member of the two dependence-verdict enums (``DepClass`` in
``src/repro/compiler/analysis.py`` and ``RegionVerdict`` in
``src/repro/analyze/dependence.py``) must appear backticked in
``docs/ANALYSIS.md``, so the verdict lattice the analyzer can emit is
exactly the one the documentation explains.

Command lines are checked too: every ``--flag`` inside a backticked
``repro <sub> …`` span of the docs (``ROADMAP.md`` excepted — it names
planned flags) must be one that ``src/repro/cli.py`` adds to that
subcommand's parser, so a deleted option cannot linger in an example.

The point is cheap rot detection: when a module is renamed or a file is
deleted, the docs that still mention it break this check instead of
silently going stale.

Usage: ``python tools/check_docs.py`` from the repository root (exits
non-zero listing every stale reference).
"""

from __future__ import annotations

import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Documents under contract.  ``docs/*.md`` plus the top-level docs that
#: reference modules and paths.
DOC_GLOBS = (
    "docs",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "ROADMAP.md",
)

MODULE_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_REF = re.compile(
    r"`((?:src|docs|tests|benchmarks|examples|tools)/[^`\s]+?)"
    r"(?:::[^`]*)?`"
)


#: Documents that describe planned work: their module references need
#: only a resolving prefix, and their ``repro <sub> --flag`` spans are
#: not checked, since they name modules and flags that do not exist yet.
PLANNING_DOCS = ("ROADMAP.md",)

#: Documents whose ``repro <sub> --flag`` spans must name real flags.
FLAG_DOC_GLOBS = tuple(entry for entry in DOC_GLOBS if entry not in PLANNING_DOCS)


def doc_files(globs: tuple[str, ...] = DOC_GLOBS) -> list[str]:
    files = []
    for entry in globs:
        path = os.path.join(REPO_ROOT, entry)
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".md")
            )
        elif os.path.isfile(path):
            files.append(path)
    return files


def package_names(package_dir: str) -> set[str]:
    """Names the package's ``__init__.py`` binds at module level.

    Parsed, not imported, like :func:`generator_knobs`: imported names,
    functions, classes and assignment targets.
    """
    init = os.path.join(package_dir, "__init__.py")
    if not os.path.isfile(init):
        return set()
    with open(init, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), init)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def module_exists(dotted: str, strict: bool = True) -> bool:
    """True if ``dotted`` names a module, package or attribute in src/.

    ``repro.lsu.unit.LoadStoreUnit`` passes because ``repro/lsu/unit.py``
    exists; the components after a module file are assumed to be
    attributes.  When the deepest prefix that resolves is a package, the
    next component must be a submodule of it or a name its
    ``__init__.py`` binds: ``repro.lsu.LsuEntry`` passes, and
    ``repro.common.gone`` fails although ``repro.common`` exists.  With
    ``strict`` false any resolving prefix is enough (planning documents
    name modules that do not exist yet).  The bare package ``repro``
    alone always exists and is not interesting, so at least two
    components must be given.
    """
    parts = dotted.split(".")
    if len(parts) < 2:
        return True
    for end in range(len(parts), 1, -1):
        path = os.path.join(SRC_ROOT, *parts[:end])
        if os.path.isfile(path + ".py"):
            return True
        if os.path.isdir(path):
            return (
                not strict
                or end == len(parts)
                or parts[end] in package_names(path)
            )
    return False


def path_exists(rel: str) -> bool:
    # a doc may legitimately reference glob-ish families ("docs/*.md")
    # or a directory with a trailing slash
    if "*" in rel or "…" in rel:
        return True
    return os.path.exists(os.path.join(REPO_ROOT, rel.rstrip("/")))


def check_file(path: str, strict: bool | None = None) -> list[str]:
    """Stale module and path references in one document.

    ``strict`` is passed to :func:`module_exists`; by default it holds
    for every document but the :data:`PLANNING_DOCS`.
    """
    problems = []
    rel_doc = os.path.relpath(path, REPO_ROOT)
    if strict is None:
        strict = rel_doc not in PLANNING_DOCS
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for match in MODULE_REF.finditer(line):
                if not module_exists(match.group(0), strict):
                    problems.append(
                        f"{rel_doc}:{lineno}: unresolved module reference "
                        f"{match.group(0)!r}"
                    )
            for match in PATH_REF.finditer(line):
                if not path_exists(match.group(1)):
                    problems.append(
                        f"{rel_doc}:{lineno}: missing path "
                        f"{match.group(1)!r}"
                    )
    return problems


SUBCOMMAND_REF = re.compile(r"add_parser\(\s*[\"']([a-z_]+)[\"']")
#: A README command-table row: ``| `repro <name> ...` | ... |``.
COMMAND_ROW_REF = re.compile(r"^\|\s*`repro ([a-z_]+)", re.MULTILINE)


def cli_subcommands(cli_path: str | None = None) -> list[str]:
    """Subcommand names registered in ``src/repro/cli.py``."""
    if cli_path is None:
        cli_path = os.path.join(SRC_ROOT, "repro", "cli.py")
    with open(cli_path, encoding="utf-8") as fh:
        return SUBCOMMAND_REF.findall(fh.read())


def check_cli_documented(readme_path: str | None = None) -> list[str]:
    """Every CLI subcommand must appear as ``repro <name>`` in README,
    and every README command-table row must name a registered one."""
    if readme_path is None:
        readme_path = os.path.join(REPO_ROOT, "README.md")
    with open(readme_path, encoding="utf-8") as fh:
        readme = fh.read()
    rel_readme = os.path.relpath(readme_path, REPO_ROOT)
    registered = cli_subcommands()
    problems = []
    for name in registered:
        if f"repro {name}" not in readme:
            problems.append(
                f"{rel_readme}: CLI subcommand {name!r} is not documented "
                f"(expected the text 'repro {name}')"
            )
    for name in sorted(set(COMMAND_ROW_REF.findall(readme)) - set(registered)):
        problems.append(
            f"{rel_readme}: command table row 'repro {name}' names no "
            f"registered CLI subcommand"
        )
    return problems


#: ``p_x = sub.add_parser("name"`` binds a subcommand parser to ``p_x``.
PARSER_BINDING = re.compile(
    r"(\w+)\s*=\s*sub\.add_parser\(\s*[\"']([a-z_]+)[\"']"
)
#: ``p_x.add_argument("-j", "--jobs", ...`` — the leading option strings.
ARGUMENT_NAMES = re.compile(
    r"(\w+)\.add_argument\(((?:\s*[\"'][^\"']*[\"']\s*,)+)"
)
QUOTED = re.compile(r"[\"']([^\"']*)[\"']")
#: An inline code span, and a ``repro <sub> ...`` command inside one.
CODE_SPAN = re.compile(r"`([^`\n]+)`")
COMMAND_IN_SPAN = re.compile(r"(?:^|\s)repro ([a-z_]+)\b(.*)")
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def cli_flags(cli_path: str | None = None) -> dict[str, set[str]]:
    """Long options each registered subcommand's parser accepts.

    Parsed from source like :func:`cli_subcommands`; ``--help`` is
    always accepted.
    """
    if cli_path is None:
        cli_path = os.path.join(SRC_ROOT, "repro", "cli.py")
    with open(cli_path, encoding="utf-8") as fh:
        source = fh.read()
    flags = {name: {"--help"} for name in SUBCOMMAND_REF.findall(source)}
    parsers = dict(PARSER_BINDING.findall(source))
    for var, names in ARGUMENT_NAMES.findall(source):
        if var in parsers:
            flags[parsers[var]].update(
                name for name in QUOTED.findall(names)
                if name.startswith("--")
            )
    return flags


def check_cli_flags(doc_paths: list[str] | None = None) -> list[str]:
    """Every ``--flag`` in a backticked ``repro <sub> …`` span must be
    added to ``<sub>``'s parser in ``src/repro/cli.py``."""
    if doc_paths is None:
        doc_paths = doc_files(FLAG_DOC_GLOBS)
    flags = cli_flags()
    problems = []
    for path in doc_paths:
        rel_doc = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                for span in CODE_SPAN.findall(line):
                    match = COMMAND_IN_SPAN.search(span)
                    if match is None or match.group(1) not in flags:
                        continue
                    name = match.group(1)
                    for flag in LONG_FLAG.findall(match.group(2)):
                        if flag not in flags[name]:
                            problems.append(
                                f"{rel_doc}:{lineno}: 'repro {name}' has "
                                f"no flag {flag!r}"
                            )
    return problems


KNOB_REF = re.compile(r"KnobSpec\(\s*\n?\s*name=[\"']([a-z_]+)[\"']")


def generator_knobs(knobs_path: str | None = None) -> list[str]:
    """Knob names declared in ``src/repro/gen/knobs.py``.

    Parsed from source rather than imported so the checker keeps
    working without ``PYTHONPATH=src`` (CI runs it bare).
    """
    if knobs_path is None:
        knobs_path = os.path.join(SRC_ROOT, "repro", "gen", "knobs.py")
    with open(knobs_path, encoding="utf-8") as fh:
        return KNOB_REF.findall(fh.read())


def check_knobs_documented(doc_path: str | None = None) -> list[str]:
    """Every generator knob must appear backticked in docs/GENERATOR.md."""
    if doc_path is None:
        doc_path = os.path.join(REPO_ROOT, "docs", "GENERATOR.md")
    with open(doc_path, encoding="utf-8") as fh:
        doc = fh.read()
    rel_doc = os.path.relpath(doc_path, REPO_ROOT)
    problems = []
    for name in generator_knobs():
        if f"`{name}`" not in doc:
            problems.append(
                f"{rel_doc}: generator knob {name!r} is not documented "
                f"(expected the text '`{name}`')"
            )
    return problems


def enum_members(source_path: str, class_name: str) -> list[str]:
    """UPPER_CASE member names of one enum class, parsed from source.

    Parsed (not imported) for the same reason as :func:`generator_knobs`:
    CI runs this checker without ``PYTHONPATH=src``.
    """
    class_re = re.compile(rf"^class {class_name}\b")
    member_re = re.compile(r"^    ([A-Z][A-Z0-9_]*)\s*=")
    members = []
    in_class = False
    with open(source_path, encoding="utf-8") as fh:
        for line in fh:
            if class_re.match(line):
                in_class = True
                continue
            if in_class:
                if line.strip() and not line.startswith(" "):
                    break  # next top-level statement ends the class body
                match = member_re.match(line)
                if match:
                    members.append(match.group(1))
    return members


#: (source file, enum class, doc that must name every member backticked)
VERDICT_ENUMS = (
    (os.path.join("src", "repro", "compiler", "analysis.py"), "DepClass",
     os.path.join("docs", "ANALYSIS.md")),
    (os.path.join("src", "repro", "analyze", "dependence.py"),
     "RegionVerdict", os.path.join("docs", "ANALYSIS.md")),
)


def check_verdicts_documented() -> list[str]:
    """Every ``DepClass``/``RegionVerdict`` member must appear backticked
    in ``docs/ANALYSIS.md``."""
    problems = []
    for src_rel, class_name, doc_rel in VERDICT_ENUMS:
        members = enum_members(os.path.join(REPO_ROOT, src_rel), class_name)
        if not members:
            problems.append(
                f"{src_rel}: enum {class_name!r} not found (doc gate "
                f"for {doc_rel} has nothing to check)"
            )
            continue
        doc_path = os.path.join(REPO_ROOT, doc_rel)
        if not os.path.isfile(doc_path):
            problems.append(f"{doc_rel}: missing (documents {class_name})")
            continue
        with open(doc_path, encoding="utf-8") as fh:
            doc = fh.read()
        for name in members:
            if f"`{name}`" not in doc:
                problems.append(
                    f"{doc_rel}: {class_name} verdict {name!r} is not "
                    f"documented (expected the text '`{name}`')"
                )
    return problems


def main() -> int:
    files = doc_files()
    problems = []
    for path in files:
        problems.extend(check_file(path))
    problems.extend(check_cli_documented())
    problems.extend(check_cli_flags())
    problems.extend(check_knobs_documented())
    problems.extend(check_verdicts_documented())
    if problems:
        print(f"check_docs: {len(problems)} stale reference(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"check_docs: OK ({len(files)} documents scanned)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
