"""The documentation reference checker (tools/check_docs.py).

CI runs the script directly; these tests pin its resolution rules so a
refactor of the checker cannot silently stop detecting rot.
"""

import importlib.util
import os

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(_TOOLS, "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestModuleRefs:
    def test_real_modules_resolve(self, check_docs):
        assert check_docs.module_exists("repro.parallel.cache")
        assert check_docs.module_exists("repro.lsu.unit.LoadStoreUnit")
        assert check_docs.module_exists("repro.experiments")

    def test_fake_module_fails(self, check_docs):
        assert not check_docs.module_exists("repro.nonexistent.widget")

    def test_bare_package_is_uninteresting(self, check_docs):
        assert check_docs.module_exists("repro")

    def test_package_member_must_exist(self, check_docs):
        """Under a package, the next component must be a submodule or a
        name the ``__init__.py`` binds, not just any word."""
        assert check_docs.module_exists("repro.lsu.LsuEntry")
        assert check_docs.module_exists("repro.common.TABLE_I")
        assert not check_docs.module_exists("repro.common.bitvec")
        assert not check_docs.module_exists("repro.lsu.gone.Widget")
        # planning documents name modules that do not exist yet
        assert check_docs.module_exists("repro.common.bitvec", strict=False)


class TestPathRefs:
    def test_real_paths_resolve(self, check_docs):
        assert check_docs.path_exists("docs/PERFORMANCE.md")
        assert check_docs.path_exists("src/repro/pipeline/core.py")

    def test_missing_path_fails(self, check_docs):
        assert not check_docs.path_exists("examples/limit_study.py")

    def test_glob_families_tolerated(self, check_docs):
        assert check_docs.path_exists("docs/*.md")


class TestCheckFile:
    def test_flags_stale_references(self, check_docs, tmp_path):
        doc = tmp_path / "stale.md"
        doc.write_text(
            "See `repro.bogus.module` and `src/repro/gone.py` for details;\n"
            "`repro.lsu.unit` is fine.\n"
        )
        problems = check_docs.check_file(str(doc))
        assert len(problems) == 2
        assert any("repro.bogus.module" in p for p in problems)
        assert any("src/repro/gone.py" in p for p in problems)

    def test_planning_docs_are_lenient(self, check_docs, tmp_path):
        doc = tmp_path / "plan.md"
        doc.write_text("Add `repro.verify.planned` next.\n")
        assert len(check_docs.check_file(str(doc))) == 1
        assert check_docs.check_file(str(doc), strict=False) == []
        assert "ROADMAP.md" in check_docs.PLANNING_DOCS

    def test_repo_docs_are_clean(self, check_docs):
        problems = []
        for path in check_docs.doc_files():
            problems.extend(check_docs.check_file(path))
        assert not problems, problems


class TestCliDocumented:
    def test_finds_all_registered_subcommands(self, check_docs):
        names = check_docs.cli_subcommands()
        assert {"list", "experiment", "loop", "disasm", "verify",
                "inject", "sweep", "trace", "attrib"} <= set(names)

    def test_readme_documents_every_subcommand(self, check_docs):
        assert check_docs.check_cli_documented() == []

    def test_flags_undocumented_subcommand(self, check_docs, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("only `repro list` is mentioned here\n")
        problems = check_docs.check_cli_documented(str(readme))
        assert problems
        assert any("'trace'" in p for p in problems)
        # the one documented command is not flagged
        assert not any("'list'" in p for p in problems)

    def test_flags_stale_command_table_row(self, check_docs, tmp_path):
        readme = tmp_path / "README.md"
        rows = [f"| `repro {name}` | documented |"
                for name in check_docs.cli_subcommands()]
        rows.append("| `repro frobnicate --now` | long gone |")
        readme.write_text("\n".join(rows) + "\n")
        problems = check_docs.check_cli_documented(str(readme))
        assert len(problems) == 1
        assert "'repro frobnicate'" in problems[0]


class TestCliFlags:
    def test_parses_flags_per_subcommand(self, check_docs):
        flags = check_docs.cli_flags()
        assert {"--jobs", "--cache-dir", "--timeout"} <= flags["sweep"]
        assert "--jobs" not in flags["loop"]
        assert set(flags) == set(check_docs.cli_subcommands())

    def test_repo_docs_name_real_flags(self, check_docs):
        assert check_docs.check_cli_flags() == []

    def test_flags_unknown_flag(self, check_docs, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text(
            "Run `repro sweep --frobnicate` or `repro sweep --jobs 2`;\n"
            "`repro nosuchcmd --x` names no subcommand.\n"
        )
        problems = check_docs.check_cli_flags([str(readme)])
        assert len(problems) == 1
        assert "'repro sweep'" in problems[0]
        assert "'--frobnicate'" in problems[0]

    def test_flag_checked_against_its_own_subcommand(self, check_docs,
                                                     tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("`python -m repro loop hmmer viterbi --jobs 2`\n")
        problems = check_docs.check_cli_flags([str(readme)])
        assert len(problems) == 1
        assert "'--jobs'" in problems[0]


class TestKnobsDocumented:
    def test_finds_declared_knobs(self, check_docs):
        names = check_docs.generator_knobs()
        assert {"n", "dep_density", "dep_distance", "gather_ratio",
                "scatter", "predication_rate", "direction"} <= set(names)
        # the source parse must agree with the importable declaration
        from repro.gen.knobs import KNOB_SPACE
        assert set(names) == {spec.name for spec in KNOB_SPACE}

    def test_generator_doc_covers_every_knob(self, check_docs):
        assert check_docs.check_knobs_documented() == []

    def test_flags_undocumented_knob(self, check_docs, tmp_path):
        doc = tmp_path / "GENERATOR.md"
        doc.write_text("only `dep_density` is mentioned here\n")
        problems = check_docs.check_knobs_documented(str(doc))
        assert problems
        assert any("'gather_ratio'" in p for p in problems)
        assert not any("'dep_density'" in p for p in problems)


class TestVerdictsDocumented:
    def test_enum_members_parse_agrees_with_import(self, check_docs):
        from repro.analyze import RegionVerdict
        from repro.compiler.analysis import DepClass

        for src, cls, enum in (
            (("src", "repro", "compiler", "analysis.py"), "DepClass",
             DepClass),
            (("src", "repro", "analyze", "dependence.py"), "RegionVerdict",
             RegionVerdict),
        ):
            path = os.path.join(check_docs.REPO_ROOT, *src)
            assert set(check_docs.enum_members(path, cls)) \
                == {m.name for m in enum}

    def test_analysis_doc_covers_every_verdict(self, check_docs):
        assert check_docs.check_verdicts_documented() == []

    def test_flags_undocumented_verdict(self, check_docs, tmp_path, monkeypatch):
        doc_rel = os.path.join("docs", "ANALYSIS.md")
        (tmp_path / "docs").mkdir()
        (tmp_path / "src" / "repro" / "compiler").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "analyze").mkdir(parents=True)
        (tmp_path / doc_rel).write_text("only `NO_CONFLICT` here\n")
        for src, _, body in check_docs.VERDICT_ENUMS:
            real = os.path.join(check_docs.REPO_ROOT, src)
            (tmp_path / src).write_text(open(real, encoding="utf-8").read())
        monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
        problems = check_docs.check_verdicts_documented()
        assert any("'MUST_CONFLICT'" in p for p in problems)
        assert any("'UNKNOWN'" in p for p in problems)
        assert not any("'NO_CONFLICT'" in p for p in problems)
