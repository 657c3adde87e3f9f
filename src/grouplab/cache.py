"""On-disk subgroup-lattice cache.

One file per group, keyed by a content hash of (degree, sorted generator
images).  The format is versioned text with a magic header; any corruption
raises :class:`CacheError` rather than silently recomputing or returning
wrong data.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional

from .context import context_of
from .errors import CacheError
from .groups import Group

__all__ = [
    "cache_dir",
    "group_cache_key",
    "load_lattice",
    "store_lattice",
    "clear_cache",
    "cache_stats",
    "enabled",
]

MAGIC = "grouplab-lattice 1"
_ENV_DIR = "GROUPLAB_CACHE_DIR"
_ENV_ON = "GROUPLAB_CACHE"
# the temp files of store_lattice: <key>.<random>.tmp
_TEMP_GLOB = "*.*.tmp"


def enabled() -> bool:
    return os.environ.get(_ENV_ON, "") not in ("", "0")


def cache_dir() -> Path:
    root = os.environ.get(_ENV_DIR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "grouplab"


def group_cache_key(G: Group) -> str:
    payload = repr((G.degree, sorted(g.images for g in G.generators)))
    return hashlib.sha256(payload.encode()).hexdigest()


def _path_for(G: Group) -> Path:
    return cache_dir() / f"{group_cache_key(G)}.lattice"


def store_lattice(G: Group, subgroups: tuple[Group, ...]) -> None:
    """Persist the subgroup list as element-index sets into G.elements()."""
    ctx = context_of(G)
    rank = {p: i for i, p in enumerate(ctx.positions(G))}
    lines = [MAGIC, f"key {group_cache_key(G)}", f"degree {G.degree}",
             f"order {G.order}", f"count {len(subgroups)}"]
    for H in subgroups:
        lines.append("sub " + " ".join(str(rank[p]) for p in ctx.positions(H)))
    path = _path_for(G)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file of its own, so concurrent writers of one group never mix
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".",
                               suffix=".tmp")   # matches _TEMP_GLOB
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_lattice(G: Group) -> Optional[tuple[Group, ...]]:
    """The cached subgroup list, None when absent, CacheError when corrupt."""
    path = _path_for(G)
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise CacheError(f"{path}: bad magic header")
    try:
        fields = dict(l.split(None, 1) for l in lines[1:5])
        if fields["key"] != group_cache_key(G):
            raise CacheError(f"{path}: key mismatch")
        if int(fields["degree"]) != G.degree or int(fields["order"]) != G.order:
            raise CacheError(f"{path}: group mismatch")
        subs: dict[int, Group] = {}   # mask -> subgroup
        ctx = context_of(G)
        at = ctx.positions(G)   # G.elements()[i] is at position at[i]
        for line in lines[5:]:
            if not line.strip():
                continue
            kw, _, rest = line.partition(" ")
            if kw != "sub":
                raise CacheError(f"{path}: unexpected line {line!r}")
            idxs = [int(i) for i in rest.split()]
            if idxs != sorted(set(idxs)) or not 0 <= idxs[0] <= idxs[-1] < G.order:
                raise CacheError(f"{path}: {line!r} is not a sorted index list")
            # one closure: the greedy generators and the subgroup they make
            gens, elems, mask = ctx._index.close([at[i] for i in idxs])
            if len(elems) != len(idxs):
                raise CacheError(f"{path}: {line!r} is not a subgroup")
            if mask in subs:
                raise CacheError(f"{path}: {line!r} repeats a subgroup")
            subs[mask] = ctx._group(mask, elems, gens)
        if len(subs) != int(fields["count"]):
            raise CacheError(f"{path}: expected {fields['count']} subgroups, found {len(subs)}")
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(f"{path}: corrupt cache file: {exc}") from exc
    return tuple(subs.values())


def clear_cache() -> int:
    """Delete all cache files, and the temp files of stores that never
    finished, which a killed writer leaves behind; returns the number
    removed.  A store running meanwhile may lose its temp file and fail."""
    d = cache_dir()
    if not d.exists():
        return 0
    n = 0
    for f in [*d.glob("*.lattice"), *d.glob(_TEMP_GLOB)]:
        if f.is_file():
            f.unlink()
            n += 1
    return n


def cache_stats() -> dict:
    d = cache_dir()
    files = list(d.glob("*.lattice")) if d.exists() else []
    return {
        "directory": str(d),
        "files": len(files),
        "bytes": sum(f.stat().st_size for f in files),
    }
