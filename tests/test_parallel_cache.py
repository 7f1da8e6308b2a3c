"""Content-addressed result cache (repro.parallel.cache).

Covers digest stability, the in-memory LRU bound, cross-process disk
hits (modelled with two cache instances) for run and sample payloads,
implicit invalidation via the code-version hash (and that an edit to
any module of the package, every one a cached entry point imports
among them, moves the hash), and corrupt-entry recovery.
"""

import ast
import importlib.util
import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.parallel import cache as cache_mod
from repro.parallel.cache import (
    ResultCache,
    cache_digest,
    code_version_hash,
    core_sources,
)
from repro.sample import SampleReport

KEY_A = ("loop_a", "srv", 0, "cfg", True, 64, "ooo")
KEY_B = ("loop_b", "srv", 0, "cfg", True, 64, "ooo")
#: ``sample_loop``'s key shape: the ``"sample"`` tag, then the loop,
#: strategy, seed, config, core and sampling geometry.
SAMPLE_KEY = ("sample", "loop_a", "srv", 0, "cfg", "ooo", 512, 1536,
              None, 8, 3, 64)


def payload(**extra) -> dict:
    """A structurally valid run payload (disk reads validate the shape)."""
    return {"emu": None, "pipe": None, "correct": True, **extra}


def sample_report() -> SampleReport:
    """A small sampled projection, as ``sample_loop`` caches it."""
    return SampleReport(
        workload="wl", loop="loop_a", strategy="srv", core="ooo", seed=0,
        n=64, interval_size=512, warmup=1536, requested_clusters=None,
        k=1, total_ops=4096, intervals=8, head_intervals=3, head_ops=1536,
        head_cycles=900, detailed_ops=2048, projected_cycles=2400,
        projected_region_cycles=1200, clusters=(),
    )


@pytest.fixture(autouse=True)
def _stable_code_version(monkeypatch):
    """Pin the code-version hash so tests don't re-hash the source tree."""
    monkeypatch.setattr(cache_mod, "_CODE_VERSION", "f" * 64)
    yield


class TestDigest:
    def test_stable_across_calls(self):
        assert cache_digest(KEY_A) == cache_digest(KEY_A)

    def test_distinct_keys_distinct_digests(self):
        assert cache_digest(KEY_A) != cache_digest(KEY_B)

    def test_code_version_is_part_of_the_address(self):
        assert cache_digest(KEY_A, "a" * 64) != cache_digest(KEY_A, "b" * 64)

    def test_value_keyed_not_identity_keyed(self):
        # equal tuples built separately must address the same entry
        other = tuple(["loop_a", "srv", 0, "cfg", True, 64, "ooo"])
        assert other is not KEY_A
        assert cache_digest(other) == cache_digest(KEY_A)

    def test_code_version_hash_is_hex_sha256(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CODE_VERSION", None)
        digest = code_version_hash()
        assert len(digest) == 64
        int(digest, 16)
        # cached on the second call
        assert code_version_hash() == digest


class TestMemoryLayer:
    def test_lru_eviction(self):
        cache = ResultCache(max_memory=3)
        for i in range(5):
            cache.put((i,), {"v": i})
        assert len(cache) == 3
        assert cache.get((0,)) is None
        assert cache.get((4,)) == {"v": 4}

    def test_get_promotes_recency(self):
        cache = ResultCache(max_memory=2)
        cache.put((1,), {"v": 1})
        cache.put((2,), {"v": 2})
        cache.get((1,))  # touch: (2,) becomes the eviction candidate
        cache.put((3,), {"v": 3})
        assert cache.get((1,)) == {"v": 1}
        assert cache.get((2,)) is None

    def test_stats_accounting(self):
        cache = ResultCache()
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"v": 1})
        cache.get(KEY_A)
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.memory_hits == 1


class TestDiskLayer:
    def test_hit_across_instances(self, tmp_path):
        writer = ResultCache()
        writer.enable_disk(str(tmp_path))
        writer.put(KEY_A, payload(v=42))

        reader = ResultCache()
        reader.enable_disk(str(tmp_path))
        assert reader.contains(KEY_A)
        assert reader.get(KEY_A) == payload(v=42)
        assert reader.stats.disk_hits == 1
        # the hit was promoted into the reader's memory layer
        assert len(reader) == 1

    def test_code_edit_invalidates_implicitly(self, tmp_path, monkeypatch):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(KEY_A, payload(v=1))
        cache.clear_memory()
        assert cache.contains(KEY_A)
        # simulate editing a core simulator module: the version hash moves
        monkeypatch.setattr(cache_mod, "_CODE_VERSION", "0" * 64)
        assert not cache.contains(KEY_A)
        assert cache.get(KEY_A) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(KEY_A, payload(v=1))
        cache.clear_memory()
        path = cache._disk_path(cache_digest(KEY_A))
        with open(path, "wb") as fh:
            fh.write(b"torn write garbage")
        assert cache.get(KEY_A) is None
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1
        # the slot can be rewritten cleanly afterwards
        cache.put(KEY_A, payload(v=2))
        cache.clear_memory()
        assert cache.get(KEY_A) == payload(v=2)

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(KEY_A, payload(v=1))
        cache.clear_memory()
        path = cache._disk_path(cache_digest(KEY_A))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        # contains stays optimistic (non-empty file) but get detects it
        assert cache.contains(KEY_A)
        assert cache.get(KEY_A) is None
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1

    def test_zero_byte_entry_treated_as_absent(self, tmp_path):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(KEY_A, payload(v=1))
        cache.clear_memory()
        path = cache._disk_path(cache_digest(KEY_A))
        with open(path, "wb"):
            pass
        assert not cache.contains(KEY_A)
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1

    def test_non_dict_payload_rejected(self, tmp_path):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        path = cache._disk_path(cache_digest(KEY_A))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(["not", "a", "payload"], fh)
        assert cache.get(KEY_A) is None
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1

    def test_wrong_shape_dict_rejected(self, tmp_path):
        # unpickles fine but lacks the run-payload keys: foreign file
        # dropped in the cache directory, or a half-flipped entry
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        path = cache._disk_path(cache_digest(KEY_A))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"emu": None, "wrong": True}, fh)
        assert cache.get(KEY_A) is None
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1

    def test_sample_report_round_trip(self, tmp_path):
        # sample_loop persists {"report": ...}, not a run payload; a
        # fresh process must read it back instead of evicting it
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(SAMPLE_KEY, {"report": sample_report()})
        cache.clear_memory()
        assert cache.get(SAMPLE_KEY) == {"report": sample_report()}
        assert cache.stats.disk_hits == 1
        assert cache.stats.evictions == 0
        cache.clear_memory()
        assert cache.contains(SAMPLE_KEY)

    def test_run_payload_under_sample_key_rejected(self, tmp_path):
        # each producer's shape is accepted only under its own keys
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(SAMPLE_KEY, payload())
        cache.put(KEY_A, {"report": sample_report()})
        cache.clear_memory()
        assert cache.get(SAMPLE_KEY) is None
        assert cache.get(KEY_A) is None
        assert cache.stats.evictions == 2
        assert not cache.contains(SAMPLE_KEY)
        assert not cache.contains(KEY_A)

    def test_disable_disk(self, tmp_path):
        cache = ResultCache()
        cache.enable_disk(str(tmp_path))
        cache.put(KEY_A, payload(v=1))
        cache.clear_memory()
        cache.disable_disk()
        assert cache.get(KEY_A) is None


#: Entry points of every timed and sampled run: the streaming timing path
#: and the functional emulator, and the two producers of cached payloads,
#: ``run_loop`` and ``sample_loop``.
SIMULATION_ROOTS = (
    "repro.pipeline.stream",
    "repro.emu.interpreter",
    "repro.experiments.runner",
    "repro.sample.project",
)


def _static_import_closure(roots) -> set[str]:
    """Every ``repro`` module reachable from ``roots`` by import statements
    (function-local ones too), read from the AST without executing code;
    importing ``a.b.c`` also runs ``a`` and ``a.b``."""
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parts = module.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        origin = importlib.util.find_spec(module).origin
        tree = ast.parse(Path(origin).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                todo.extend(alias.name for alias in node.names
                            if alias.name.split(".")[0] == "repro")
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "repro"):
                todo.append(node.module)
                # ``from repro.x import y`` may name the submodule repro.x.y
                todo.extend(
                    f"{node.module}.{alias.name}" for alias in node.names
                    if _is_module(f"{node.module}.{alias.name}")
                )
    return seen


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # the parent is a module, not a package
        return False


class TestCodeVersionCoverage:
    def test_hash_covers_the_simulation_import_closure(self):
        """Editing any module a simulation imports must change the code
        version, or a cached result outlives the code that made it."""
        hashed = {os.path.realpath(path) for path in core_sources()}
        closure = _static_import_closure(SIMULATION_ROOTS)
        assert "repro.pipeline.core" in closure  # the walk reaches deep
        unhashed = sorted(
            module for module in closure
            if os.path.realpath(importlib.util.find_spec(module).origin)
            not in hashed
        )
        assert not unhashed, unhashed

    def test_planted_edit_in_each_package_moves_the_hash(
            self, tmp_path, monkeypatch):
        """Appending a comment to any module of the package, in each
        top-level subpackage and at the top level, changes the code
        version."""
        package = tmp_path / "repro"
        shutil.copytree(
            cache_mod._PACKAGE_DIR, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(cache_mod, "_PACKAGE_DIR", str(package))
        assert sorted(core_sources()) == sorted(
            str(path) for path in package.rglob("*.py")
        )
        subpackages = sorted(
            path for path in package.iterdir()
            if (path / "__init__.py").is_file()
        )
        assert len(subpackages) >= 10
        # one module deep in each subpackage, plus every top-level module
        planted = [sorted(sub.rglob("*.py"))[-1] for sub in subpackages]
        planted += sorted(package.glob("*.py"))

        seen = set()
        for path in [None, *planted]:
            if path is not None:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("\n# planted edit\n")
            monkeypatch.setattr(cache_mod, "_CODE_VERSION", None)
            digest = code_version_hash()
            assert digest not in seen, path
            seen.add(digest)
