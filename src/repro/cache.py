"""Content-addressed artifact caches (instrumentation + static analysis).

Every dual execution needs an :class:`~repro.instrument.pipeline.
InstrumentedModule` — the IR module, its :class:`ModulePlan` and the
callgraph.  Building one re-lexes, re-parses, re-lowers and re-plans
the MiniC source, which the evaluation harness used to repeat for the
same 28 workloads on every run.  This module caches the finished
artifact, keyed by a content hash of the MiniC source plus the
instrumentation configuration:

* an **in-process LRU layer** bounds memory and serves repeat lookups
  within one process (the parent *and* each pool worker keep one);
* an optional **on-disk layer** (``.repro-cache/`` by default when the
  CLI enables it) persists pickled artifacts across processes and
  runs, so a warm cache skips compilation entirely.

Keys never include runtime state (worlds, seeds, fault plans): the
artifact is a pure function of source text and instrumentation config.
The disk layout is versioned by :data:`SCHEMA_TAG` — bumping the tag
when the artifact format changes orphans old entries instead of
deserializing them wrongly — and every stored payload embeds the tag
again so a stray file from another version is treated as a miss.
Corrupted entries (truncated writes, bad pickles) also degrade to a
miss: the artifact is recompiled and the entry rewritten.

**Concurrent writers are safe.**  The serve daemon's worker threads
and the eval harness's pool processes share these caches:

* every disk publish goes through a private temp file, ``fsync`` and
  an atomic ``os.replace`` — a reader sees either the old entry, the
  new entry, or nothing, never a torn write;
* every stored payload embeds a SHA-256 digest of the pickled
  artifact, verified on load — an entry corrupted *after* publish
  (bit rot, a partial copy, an interrupted writer from a foreign
  version) is detected, unlinked and rebuilt instead of deserialized
  into a wrong artifact;
* the in-process memory LRU takes a lock around every mutation, so
  concurrent daemon workers can share one cache instance.

The same two-layer machinery also backs the **static analysis cache**
(:data:`ANALYSIS_SCHEMA_TAG`): ``repro analyze`` summaries are pure
functions of source text plus the analysis seed fingerprint, so they
content-address the same way.  The two caches share a directory but
never a namespace — each schema tag owns a subdirectory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.instrument import (
    InstrumentedModule,
    instrument_module,
    relevance_enabled,
)
from repro.ir import compile_source

# Bump when InstrumentedModule / ModulePlan / IR pickle layout changes.
# v2: payload embeds a SHA-256 digest of the pickled artifact.
# v3: ModulePlan carries the sink-relevance classification.
# v4: instrumentation-time counter pruning — counter-elidable edges
# carry ElidedAdd ghosts, FunctionRelevance carries prunable_edges, and
# the pruning switch joins the content address (pruned and full plans
# are distinct artifacts).
SCHEMA_TAG = "ldx-artifact-v4"

# Bump when ProgramAnalysis / Diagnostic pickle layout changes.
# v3: ProgramAnalysis carries sink-relevance rows, totals and the
# relevant-syscall-site oracle set.
# v4: relevance rows/totals carry prunable counter-update counts.
ANALYSIS_SCHEMA_TAG = "ldx-analysis-v4"

# Bump when the threaded-code compiler's closure layout / fusion rules
# change.  Compiled modules are arrays of Python closures and cannot be
# pickled, so this cache is memory-only — the tag still participates in
# the content address to keep keys disjoint from other artifact kinds.
# v2: relevance-guided widened regions with path-local register caching.
# v3: hoisted int-type guards + induction-variable specialization for
# self-reentering regions; pruned plans fold ElidedAdd ghosts.
# v4: regions are the only fusion codegen (straight-line runs removed).
COMPILED_SCHEMA_TAG = "ldx-threaded-v4"

# Bump when the pickled result-row layout of any eval/chaos cell class
# changes.  Shared by the columnar results store (repro.results): a tag
# bump orphans every stored cell, so a re-run recomputes them instead
# of unpickling rows from an incompatible layout.
RESULTS_SCHEMA_TAG = "ldx-results-v1"


class CacheStats:
    """Hit/miss accounting for one cache instance."""

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores", "disk_errors")

    def __init__(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_errors = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"<CacheStats mem={self.memory_hits} disk={self.disk_hits} "
            f"miss={self.misses}>"
        )


def artifact_key(
    source: str,
    config: Optional[Dict[str, object]] = None,
    schema_tag: Optional[str] = None,
) -> str:
    """Content address of one cached artifact.

    Hashes the schema tag, the configuration (sorted, so dict ordering
    never changes the key) and the source text.  Runtime state is
    deliberately excluded.
    """
    hasher = hashlib.sha256()
    hasher.update((SCHEMA_TAG if schema_tag is None else schema_tag).encode())
    for name, value in sorted((config or {}).items()):
        hasher.update(b"\0")
        hasher.update(f"{name}={value!r}".encode())
    hasher.update(b"\0\0")
    hasher.update(source.encode())
    return hasher.hexdigest()


def result_cell_key(source: str, params: Dict[str, object]) -> str:
    """Content address of one eval/chaos result cell.

    The same derivation the artifact cache uses, under the results
    schema tag: *source* is the MiniC text of the workload(s) the cell
    executes and *params* are the cell's coordinates (kind, workload,
    variant, seeds, chunk bounds, config fingerprint).  Editing a
    workload or changing a cell's configuration changes the key, which
    is exactly what makes re-runs incremental — an unchanged cell's key
    is already present in the store.
    """
    return artifact_key(source, params, schema_tag=RESULTS_SCHEMA_TAG)


class ArtifactCache:
    """A two-layer (memory LRU + optional disk) artifact cache.

    The payload is opaque: :meth:`lookup` takes the content-address key
    and a builder thunk, so one class serves both the instrumentation
    cache and the analysis cache.  ``payload_type``, when given, guards
    disk loads against entries written by a different cache that shares
    the directory.
    """

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
        schema_tag: str = SCHEMA_TAG,
        payload_type: Optional[type] = InstrumentedModule,
    ) -> None:
        self.capacity = max(1, capacity)
        self.cache_dir = cache_dir
        self.enabled = enabled
        self.schema_tag = schema_tag
        self.payload_type = payload_type
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        # Guards the memory LRU and the stats counters: one instance is
        # shared by all of the serve daemon's worker threads.
        self._lock = threading.RLock()

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: str, builder):
        """The artifact stored under *key*, building (and persisting)
        it on a miss."""
        if not self.enabled:
            return builder()
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return cached
        # Build outside the lock: compilation is slow and two racing
        # builders produce content-identical artifacts anyway.
        artifact = self._disk_load(key)
        if artifact is not None:
            with self._lock:
                self.stats.disk_hits += 1
        else:
            with self._lock:
                self.stats.misses += 1
            artifact = builder()
            self._disk_store(key, artifact)
        return self._remember(key, artifact)

    def instrumented(
        self, source: str, config: Optional[Dict[str, object]] = None
    ) -> InstrumentedModule:
        """The instrumented artifact for *source*, cached.

        Since the instrumenter consumes the relevance switch (pruned vs
        full plans), the switch state joins the content address: a plan
        cached with pruning on can never be served to a ``--no-relevance``
        run, or vice versa.
        """
        prune = relevance_enabled()
        full_config = dict(config or {})
        full_config["relevance_pruning"] = prune
        return self.lookup(
            artifact_key(source, full_config, self.schema_tag),
            lambda: instrument_module(compile_source(source), prune=prune),
        )

    def _remember(self, key: str, artifact):
        """Install *artifact* in the LRU; returns the canonical object
        for *key* (a racing thread's insert wins, so all callers share
        one in-memory artifact per key)."""
        with self._lock:
            existing = self._memory.get(key)
            if existing is not None:
                self._memory.move_to_end(key)
                return existing
            self._memory[key] = artifact
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
        return artifact

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    # -- disk layer ------------------------------------------------------------

    def _entry_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, self.schema_tag, key + ".pkl")

    def _disk_load(self, key: str):
        path = self._entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != self.schema_tag
            ):
                raise ValueError("schema tag mismatch")
            blob = payload["artifact"]
            if not isinstance(blob, bytes):
                raise ValueError("artifact blob must be bytes")
            # Verify before deserializing: a corrupt blob must become a
            # miss, never a plausible-but-wrong artifact.
            if hashlib.sha256(blob).hexdigest() != payload.get("digest"):
                raise ValueError("payload digest mismatch")
            artifact = pickle.loads(blob)
            if self.payload_type is not None and not isinstance(
                artifact, self.payload_type
            ):
                raise ValueError("payload has the wrong type")
            return artifact
        except Exception:
            # Corrupted or stale entry: drop it and recompile.
            self.stats.disk_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, artifact) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            blob = pickle.dumps(artifact)
            payload = pickle.dumps({
                "schema": self.schema_tag,
                "digest": hashlib.sha256(blob).hexdigest(),
                "artifact": blob,
            })
            # Atomic publish: a reader never sees a half-written entry.
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            self.stats.stores += 1
        except Exception:
            # The cache is an accelerator, never a correctness
            # dependency: disk trouble only costs future recompiles.
            self.stats.disk_errors += 1


# -- process-global caches -----------------------------------------------------
#
# The workload registry and the pool workers all route through shared
# instances so hit statistics and the LRUs are coherent within a
# process.  ``configure`` swaps both (e.g. per the CLI's --cache-dir /
# --no-cache flags, or inside a freshly spawned worker).

_GLOBAL = ArtifactCache()
_ANALYSIS = ArtifactCache(schema_tag=ANALYSIS_SCHEMA_TAG, payload_type=None)
# Closures are unpicklable: no cache_dir, ever.
_COMPILED = ArtifactCache(schema_tag=COMPILED_SCHEMA_TAG, payload_type=None)


def configure(
    cache_dir: Optional[str] = None,
    enabled: bool = True,
    capacity: int = 128,
) -> ArtifactCache:
    """Replace the process-global caches; returns the artifact one."""
    global _GLOBAL, _ANALYSIS, _COMPILED
    _GLOBAL = ArtifactCache(capacity=capacity, cache_dir=cache_dir, enabled=enabled)
    _ANALYSIS = ArtifactCache(
        capacity=capacity,
        cache_dir=cache_dir,
        enabled=enabled,
        schema_tag=ANALYSIS_SCHEMA_TAG,
        payload_type=None,
    )
    # Deliberately ignores cache_dir: closures never round-trip pickle.
    _COMPILED = ArtifactCache(
        capacity=capacity,
        cache_dir=None,
        enabled=enabled,
        schema_tag=COMPILED_SCHEMA_TAG,
        payload_type=None,
    )
    return _GLOBAL


def get_cache() -> ArtifactCache:
    return _GLOBAL


def get_analysis_cache() -> ArtifactCache:
    return _ANALYSIS


def get_compiled_cache() -> ArtifactCache:
    return _COMPILED


def instrumented_for(
    source: str, config: Optional[Dict[str, object]] = None
) -> InstrumentedModule:
    """Module-level convenience: look *source* up in the global cache."""
    return _GLOBAL.instrumented(source, config)


def compiled_for(
    source: str,
    config: Optional[Dict[str, object]] = None,
    fuse: bool = True,
):
    """Content-addressed threaded-code compilation of *source*.

    Key: source text + instrumentation config + backend schema tag +
    the fusion and relevance switches.  Routes through the
    instrumentation cache first (the compiled artifact is a pure
    function of the instrumented module), then through the per-module
    weak memo inside the compiler, so repeated lookups within one
    process never recompile.
    """
    from repro.interp.compile import compiled_for_module  # cycle-free local import

    full_config = dict(config or {})
    full_config["fuse"] = fuse
    # The relevance switch selects the plan variant (pruned/full), so it
    # must join the key.
    full_config["relevance_pruning"] = relevance_enabled()
    key = artifact_key(source, full_config, schema_tag=COMPILED_SCHEMA_TAG)
    instrumented = instrumented_for(source, config)
    return _COMPILED.lookup(
        key,
        lambda: compiled_for_module(instrumented.module, instrumented.plan, fuse=fuse),
    )


def analysis_for(source: str, fingerprint: str, builder):
    """Cached static-analysis summary of *source* under the given seed
    fingerprint.  *builder* produces the summary on a miss."""
    key = artifact_key(
        source, {"seeds": fingerprint}, schema_tag=ANALYSIS_SCHEMA_TAG
    )
    return _ANALYSIS.lookup(key, builder)
