"""Content-addressed result cache for experiment runs.

One cache, two layers:

* an **in-process LRU** over spec-free run payloads — the successor of
  the experiment runner's original ``OrderedDict`` memo (figures 6/7/11/12
  share the scalar baseline runs, so a sweep hits this constantly);
* an optional **on-disk store**, one file per entry under
  ``<dir>/<digest[:2]>/<digest>.pkl``, written atomically (tmp + rename)
  so concurrent shard workers can populate it without locking and a
  killed worker cannot leave a torn entry.

Entries are *content addressed*: the digest covers the loop name, the
strategy, the seed, the run shape (timing / trip count / core model), the
frozen :class:`~repro.common.config.MachineConfig` **value**, and a hash
of every ``.py`` file in the ``repro`` package (:func:`code_version_hash`).
Invalidation is therefore implicit and has one rule: editing any module
of the package changes the code hash and every old entry simply stops
matching.  The two cached entry points (``run_loop`` and ``sample_loop``)
import nearly the whole package anyway, so a finer per-entry-point
closure would spare only CLI edits.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field

_CODE_VERSION: str | None = None

#: The ``repro`` package directory whose sources :func:`code_version_hash`
#: covers.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def core_sources() -> list[str]:
    """Absolute paths of every ``.py`` file under the ``repro`` package,
    in a stable order: the sources :func:`code_version_hash` covers."""
    return sorted(
        os.path.join(dirpath, fname)
        for dirpath, _, fnames in os.walk(_PACKAGE_DIR)
        for fname in fnames
        if fname.endswith(".py")
    )


def code_version_hash() -> str:
    """SHA-256 over the ``repro`` package's sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is not None:
        return _CODE_VERSION
    hasher = hashlib.sha256()
    for fpath in core_sources():
        hasher.update(os.path.relpath(fpath, _PACKAGE_DIR).encode())
        with open(fpath, "rb") as fh:
            hasher.update(fh.read())
    _CODE_VERSION = hasher.hexdigest()
    return _CODE_VERSION


def cache_digest(key: tuple, code_version: str | None = None) -> str:
    """Content digest of a runner cache key.

    ``key`` is the runner's ``(loop, strategy, seed, config, timing, n,
    core)`` tuple; every component has a deterministic, value-based
    ``repr`` (``MachineConfig`` is a frozen dataclass, ``Strategy`` an
    enum), which makes the digest stable across processes — unlike
    ``hash()``, which is randomised per interpreter for strings.
    """
    if code_version is None:
        code_version = code_version_hash()
    canonical = "\x1f".join([repr(part) for part in key] + [code_version])
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: corrupt/truncated disk entries detected on read and evicted
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


#: Keys every persisted payload must carry, by producer: a key led by
#: ``"sample"`` holds a sampled projection
#: (:func:`repro.sample.project.sample_loop`), any other key a run
#: (:func:`repro.experiments.runner.run_payload`).  A payload that
#: unpickles but lacks its producer's keys is damage — a partially-flipped
#: file, a foreign pickle dropped into the cache directory — and is evicted.
SAMPLE_PAYLOAD_KEYS = frozenset({"report"})
RUN_PAYLOAD_KEYS = frozenset({"emu", "pipe", "correct"})


def _valid_payload(key: tuple, payload) -> bool:
    required = SAMPLE_PAYLOAD_KEYS if key[0] == "sample" else RUN_PAYLOAD_KEYS
    return isinstance(payload, dict) and required <= payload.keys()


@dataclass
class ResultCache:
    """LRU memo + optional content-addressed disk store of run payloads.

    Payloads are spec-free dicts (``LoopSpec`` carries input-generator
    callables, so the spec itself is never pickled; callers re-attach it
    on lookup).
    """

    max_memory: int = 2048
    disk_dir: str | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: OrderedDict = field(default_factory=OrderedDict)
    #: ``RunFailure`` records of the runs that failed in the running
    #: sweep, by key: kept in this process only, never on disk
    _failures: dict = field(default_factory=dict)

    # -- configuration -----------------------------------------------------

    def enable_disk(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        self.disk_dir = path

    def disable_disk(self) -> None:
        self.disk_dir = None

    def clear_memory(self) -> None:
        self._memory.clear()
        self._failures.clear()

    # -- failed runs -------------------------------------------------------

    def record_failure(self, key: tuple, failure) -> None:
        """Remember that the run under ``key`` failed with ``failure``."""
        self._failures[key] = failure

    def failure(self, key: tuple):
        """The recorded failure of the run under ``key``, or ``None``."""
        return self._failures.get(key)

    def clear_failures(self) -> None:
        self._failures.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ------------------------------------------------------------

    def _disk_path(self, digest: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, digest[:2], f"{digest}.pkl")

    def get(self, key: tuple) -> dict | None:
        """Return the payload for ``key`` or ``None``; promotes disk hits."""
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return payload
        if self.disk_dir is not None:
            path = self._disk_path(cache_digest(key))
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
            except FileNotFoundError:
                payload = None
            except Exception:
                # a torn/corrupt entry is equivalent to a miss; unpickling
                # arbitrary bytes can raise nearly anything
                payload = None
                self._evict(path)
            if _valid_payload(key, payload):
                self._store_memory(key, payload)
                self.stats.disk_hits += 1
                return payload
            if payload is not None:
                # decodable but structurally wrong: also damage — evict so
                # the slot is recomputed and rewritten cleanly
                self._evict(path)
        self.stats.misses += 1
        return None

    def _evict(self, path: str) -> None:
        self.stats.evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def contains(self, key: tuple) -> bool:
        """Cheap membership test (no payload load for disk entries).

        Deliberately optimistic: a non-empty file counts even though
        only :meth:`get` fully validates it — the warm phase uses this
        to skip work, and a false positive merely means the replay phase
        recomputes that cell after ``get`` evicts the damage.  Zero-byte
        files (a crash between ``open`` and the first write of a
        non-atomic copy) are treated as absent and cleaned up.
        """
        if key in self._memory:
            return True
        if self.disk_dir is not None:
            path = self._disk_path(cache_digest(key))
            try:
                if os.path.getsize(path) > 0:
                    return True
            except OSError:
                return False
            self._evict(path)
        return False

    # -- store -------------------------------------------------------------

    def _store_memory(self, key: tuple, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory:
            self._memory.popitem(last=False)

    def put(self, key: tuple, payload: dict) -> None:
        self._store_memory(key, payload)
        self.stats.stores += 1
        if self.disk_dir is not None:
            path = self._disk_path(cache_digest(key))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "wb") as fh:
                    pickle.dump(payload, fh)
                os.replace(tmp, path)
            except OSError:
                # disk-cache failure must never fail a run; drop the temp
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


#: Process-wide cache instance shared by the experiment runner and the
#: sweep engine (shard workers enable the disk layer on the same object).
_CACHE = ResultCache()


def result_cache() -> ResultCache:
    return _CACHE
