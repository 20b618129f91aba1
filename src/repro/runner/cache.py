"""Content-addressed on-disk cache of call-loop profiles.

Profiling is deterministic: the same workload, input, and code version
always produce the same annotated call-loop graph (the engine is a
seeded, pure interpreter).  That makes profiles perfect cache fodder —
the cache key is a digest of everything the profile depends on, and the
value is the JSON graph serialization from
:mod:`repro.callloop.serialization`.

Key = SHA-256 over a canonical JSON document of:

* the full workload identifier (including the ``name/input`` spec label,
  so two variants of one workload never share a key) and which input was
  profiled,
* the input's name, parameters, and RNG seed (the full engine config —
  the interpreter has no other knobs); parameter values are serialized
  with type-preserving canonical JSON, so ``1``, ``1.0``, ``True`` and
  ``"1"`` produce distinct keys and non-numeric parameters are legal,
* the package version and a cache schema version (the "code version" —
  bump either and every old entry misses),
* an optional ``extra`` mapping for callers with additional
  configuration (e.g. a profiler instruction limit).

Robustness: a corrupted, truncated, or stale-format cache file is
*never* an error — it counts as a miss (and is deleted) so the caller
falls back to re-profiling.  Writes are atomic (tempfile + ``rename``)
so a crashed run cannot leave a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.callloop.graph import CallLoopGraph
from repro.callloop.serialization import graph_from_dict, graph_to_dict
from repro.ir.program import ProgramInput

#: bump to invalidate every existing cache entry after a format change
#: (2: full workload identifier + type-preserving params in the key)
CACHE_SCHEMA_VERSION = 2


def _code_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/profiles``,
    else ``~/.cache/repro/profiles``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "profiles"


class ProfileCache:
    """Content-addressed store of serialized call-loop graphs.

    Counters (``hits``, ``misses``, ``stores``, ``invalid``) feed the
    run summary table; ``invalid`` counts corrupted entries that were
    discarded and re-profiled.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0

    # -- keys -----------------------------------------------------------------

    def graph_key(
        self,
        workload: str,
        which: str,
        program_input: ProgramInput,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """The content address of one profile: hex SHA-256 of the full
        (workload, input, code version, extra config) fingerprint."""
        fields: Dict[str, Any] = {
            "kind": "callloop-graph",
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": _code_version(),
            "workload": workload,
            "which": which,
            "input": {
                "name": program_input.name,
                "seed": program_input.seed,
                "params": sorted(
                    # Per-value canonical JSON keeps the type in the key:
                    # 1 -> "1", 1.0 -> "1.0", True -> "true", "1" -> "\"1\"".
                    (str(k), json.dumps(v, sort_keys=True, default=repr))
                    for k, v in program_input.params.items()
                ),
            },
            "extra": dict(extra) if extra else {},
        }
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def path_for(self, key: str) -> Path:
        """Where the entry for *key* lives (two-level fan-out dir)."""
        return self.root / key[:2] / f"{key}.json"

    def identity(self, key: str) -> Optional[Tuple[int, int, int]]:
        """The entry file's (inode, size, mtime in ns), or None when there
        is no entry.  A reader keeping the graph it loaded compares this
        with the identity it took before the load: any difference means
        the file is no longer the one it read."""
        try:
            st = os.stat(self.path_for(key))
        except OSError:
            return None
        return st.st_ino, st.st_size, st.st_mtime_ns

    # -- load / store ---------------------------------------------------------

    def load_graph(self, key: str) -> Optional[CallLoopGraph]:
        """The cached graph for *key*, or None on a miss.

        Anything wrong with the entry — unreadable, truncated JSON,
        unknown format version, missing fields — is treated as a miss;
        the bad file is removed so the re-profiled result can replace it.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            graph = graph_from_dict(data["graph"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            self.invalid += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return graph

    def store_graph(self, key: str, graph: CallLoopGraph) -> Path:
        """Atomically write *graph* under *key*; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"key": key, "graph": graph_to_dict(graph)}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(doc, f, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry, including orphaned ``.tmp`` files left by
        crashed writes; returns the number of files removed."""
        removed = 0
        if self.root.exists():
            for pattern in ("*/*.json", "*/*.tmp"):
                for entry in self.root.glob(pattern):
                    try:
                        entry.unlink()
                    except OSError:
                        continue
                    removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileCache({str(self.root)!r}: {self.hits} hits, "
            f"{self.misses} misses, {self.stores} stores)"
        )
