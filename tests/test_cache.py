"""On-disk lattice cache: round-trips, versioned header, loud corruption."""

import pytest

from grouplab import cache
from grouplab.catalog import builtin_group, symmetric
from grouplab.context import _CONTEXTS, context_of
from grouplab.errors import CacheError


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GROUPLAB_CACHE_DIR", str(tmp_path))
    cache.set_enabled(True)
    yield tmp_path
    cache.set_enabled(None)


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("GROUPLAB_CACHE", raising=False)
    cache.set_enabled(None)
    assert not cache.enabled()


def test_store_load_roundtrip(cache_env):
    G = symmetric(4)
    subs = context_of(G).all_subgroups()
    cache.store_lattice(G, subs)
    loaded = cache.load_lattice(G)
    assert loaded is not None
    assert [H.key for H in loaded] == [H.key for H in subs]


def test_load_absent_returns_none(cache_env):
    assert cache.load_lattice(builtin_group("cyclic(7)")) is None


def test_bad_magic_fails_loudly(cache_env):
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    p = next(cache_env.glob("*.lattice"))
    p.write_text("some-other-format 9\n" + p.read_text().split("\n", 1)[1])
    with pytest.raises(CacheError, match="magic"):
        cache.load_lattice(G)


def test_truncation_fails_loudly(cache_env):
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    p = next(cache_env.glob("*.lattice"))
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CacheError):
        cache.load_lattice(G)


def test_garbled_body_fails_loudly(cache_env):
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    p = next(cache_env.glob("*.lattice"))
    p.write_text(p.read_text().replace("sub 0", "sub x"))
    with pytest.raises(CacheError):
        cache.load_lattice(G)


def test_key_mismatch_fails_loudly(cache_env):
    A = symmetric(3)
    B = builtin_group("cyclic(6)")
    cache.store_lattice(A, context_of(A).all_subgroups())
    src = cache._path_for(A)
    dst = cache._path_for(B)
    dst.write_text(src.read_text())
    with pytest.raises(CacheError):
        cache.load_lattice(B)


def test_clear_and_stats(cache_env):
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    st = cache.cache_stats()
    assert st["files"] == 1 and st["bytes"] > 0
    assert st["directory"] == str(cache_env)
    assert cache.clear_cache() == 1
    assert cache.cache_stats()["files"] == 0
    assert cache.clear_cache() == 0


def test_clear_removes_orphaned_temp_files(cache_env):
    """A writer killed between mkstemp and os.replace leaves <key>.<x>.tmp
    behind; clear removes it with the lattice files and nothing else."""
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    key = cache.group_cache_key(G)
    (cache_env / f"{key}.k3j_x9q1.tmp").write_text("grouplab-lattice 1\n")
    (cache_env / f"{key}.tmp").mkdir()
    (cache_env / "notes.txt").write_text("kept")
    assert cache.clear_cache() == 2
    assert sorted(p.name for p in cache_env.iterdir()) == sorted(
        [f"{key}.tmp", "notes.txt"])


def test_context_uses_cache(cache_env):
    """A fresh context loads the stored lattice instead of recomputing."""
    G = builtin_group("dicyclic(3)")
    _CONTEXTS.pop((G.degree, G.key), None)
    ctx = context_of(G)
    subs = ctx.all_subgroups()
    assert list(cache_env.glob("*.lattice"))  # written on compute
    # wipe the in-memory context and reload from disk
    _CONTEXTS.pop((G.degree, G.key))
    ctx2 = context_of(G)
    loaded = ctx2.all_subgroups()
    assert [H.key for H in loaded] == [H.key for H in subs]


def test_corrupt_cache_never_silently_recomputes(cache_env):
    G = builtin_group("dicyclic(3)")
    _CONTEXTS.pop((G.degree, G.key), None)
    context_of(G).all_subgroups()
    p = next(cache_env.glob("*.lattice"))
    p.write_text("junk\n")
    _CONTEXTS.pop((G.degree, G.key))
    with pytest.raises(CacheError):
        context_of(G).all_subgroups()


def test_store_does_not_depend_on_a_fixed_temp_name(cache_env):
    """Each store writes through a temp file of its own: a directory at the
    old shared name <key>.tmp neither blocks it nor is touched."""
    G = symmetric(4)
    subs = context_of(G).all_subgroups()
    blocker = cache_env / f"{cache.group_cache_key(G)}.tmp"
    blocker.mkdir()
    cache.store_lattice(G, subs)
    loaded = cache.load_lattice(G)
    assert [H.key for H in loaded] == [H.key for H in subs]
    assert blocker.is_dir()
    assert sorted(p.name for p in cache_env.iterdir()) == sorted(
        [blocker.name, f"{cache.group_cache_key(G)}.lattice"])


def _sub_lines(path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if line.startswith("sub ")]


def _replace_sub_line(path, i, text) -> None:
    """Replace the i-th `sub` line of a cache file (0 = the trivial group)."""
    lines = path.read_text().splitlines()
    lines[lines.index(_sub_lines(path)[i])] = text
    path.write_text("\n".join(lines) + "\n")


def test_line_that_is_not_a_subgroup_fails_loudly(cache_env):
    """{(), (2 3), (1 2)} generates all of S3: the loaded lattice would list
    S3 twice and lose an order-2 subgroup."""
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    p = next(cache_env.glob("*.lattice"))
    _replace_sub_line(p, 1, "sub 0 1 2")
    with pytest.raises(CacheError, match="not a subgroup"):
        cache.load_lattice(G)


def test_line_repeating_a_subgroup_fails_loudly(cache_env):
    G = symmetric(3)
    cache.store_lattice(G, context_of(G).all_subgroups())
    p = next(cache_env.glob("*.lattice"))
    _replace_sub_line(p, 1, _sub_lines(p)[2])
    with pytest.raises(CacheError, match="repeats a subgroup"):
        cache.load_lattice(G)
