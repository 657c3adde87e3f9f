"""Command-line interface.

Exit codes: 0 = all pass, 1 = a check or verification failed,
2 = usage / parse error, 3 = a computation exceeded the desk-scale bounds.
"""

from __future__ import annotations

import json
import re
import sys

import click

from . import cache as cachemod
from .catalog import builtin_group, core_catalog_path, load_catalog
from .context import context_of
from .errors import BoundExceededError, CatalogError, GroupLabError
from .groups import Group
from .harness import format_summary, run_suite, select_theorems
from .perms import from_cycles, to_cycles
from .quasinormal import (
    has_f_supplement,
    is_fs_quasinormal,
    is_s_permutable,
)
from .structure import (
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_soluble,
    is_supersoluble,
    series,
)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BOUND = 0, 1, 2, 3


def _resolve_group(name: str, catalog_path: str | None) -> Group:
    if catalog_path:
        cat = load_catalog(catalog_path)
        for e in cat.entries:
            if e.name == name:
                return e.group
    return builtin_group(name)


def _parse_subgroup(G: Group, text: str) -> Group:
    """Subgroup from generator cycle strings separated by ';' or ','
    outside parentheses; empty parts are skipped."""
    gens = [from_cycles(t, G.degree)
            for t in re.split(r"[,;](?![^()]*\))", text) if t.strip()]
    # before closing them: stray generators may generate a far larger group
    if not all(g in G for g in gens):
        raise CatalogError("generators do not lie in the ambient group")
    return context_of(G).generated(gens)


@click.group()
def main():
    """Finite-group computations: subgroup permutability and verification."""


@main.command()
@click.argument("group")
@click.option("--catalog", "catalog_path", default=None,
              type=click.Path(exists=True), help="Look up GROUP in this catalog.")
def info(group, catalog_path):
    """Order, structural predicates, series and named subgroups of GROUP."""
    G = _resolve_group(group, catalog_path)
    ctx = context_of(G)
    click.echo(f"group    {group}")
    click.echo(f"degree   {G.degree}")
    click.echo(f"order    {G.order}")
    preds = [("abelian", is_abelian(G)), ("cyclic", is_cyclic(G)),
             ("nilpotent", is_nilpotent(G)),
             ("supersoluble", is_supersoluble(G)),
             ("soluble", is_soluble(G)), ("simple", is_simple(G))]
    click.echo("props    " + ", ".join(n for n, v in preds if v))
    click.echo(f"center   order {ctx.center().order}")
    click.echo(f"fitting  order {ctx.fitting().order}")
    click.echo(f"frattini order {ctx.frattini().order}")
    dser = series(G, "derived")
    click.echo("derived series orders  " +
               " > ".join(str(t.order) for t in dser.chain))
    lser = series(G, "lower_central")
    click.echo("lower central orders   " +
               " > ".join(str(t.order) for t in lser.chain))
    sys.exit(EXIT_PASS)


@main.command()
@click.argument("kind", type=click.Choice(["s-perm", "fsq", "supplement"]))
@click.option("--group", "group_name", required=True)
@click.option("--subgroup", "subgroup_text", required=True,
              help="Generators of the subgroup in cycle notation, "
                   "e.g. \"(1 2)(3 4); (1 3)\".")
@click.option("--formation", type=click.Choice(["N", "U", "S"]), default="U",
              show_default=True)
@click.option("--prime", type=int, default=None,
              help="With 'supplement': test for a p-nilpotent supplement "
                   "instead of a supplement in the formation.")
@click.option("--catalog", "catalog_path", default=None,
              type=click.Path(exists=True))
def check(kind, group_name, subgroup_text, formation, prime, catalog_path):
    """Decide a permutability/supplement property of a subgroup."""
    G = _resolve_group(group_name, catalog_path)
    H = _parse_subgroup(G, subgroup_text)
    if kind == "s-perm":
        v = is_s_permutable(G, H)
    elif kind == "fsq":
        v = is_fs_quasinormal(G, H, formation)
    else:
        if prime is not None:
            v = has_f_supplement(G, H, "p_nilpotent", prime)
        else:
            v = has_f_supplement(G, H, formation)
    click.echo(f"subgroup order {H.order} in group of order {G.order}")
    click.echo(f"result   {'holds' if v.holds else 'fails'}")
    if v.witness is not None:
        gens = ", ".join(to_cycles(g) for g in v.witness.generators) or "()"
        click.echo(f"witness  {v.witness_kind}: order "
                   f"{v.witness.order}, <{gens}>")
    if v.detail:
        click.echo(f"note     {v.detail}")
    sys.exit(EXIT_PASS if v.holds else EXIT_FAIL)


@main.command()
@click.argument("group")
@click.option("--catalog", "catalog_path", default=None,
              type=click.Path(exists=True))
def lattice(group, catalog_path):
    """Conjugacy classes of subgroups of GROUP."""
    G = _resolve_group(group, catalog_path)
    classes = context_of(G).subgroup_classes()
    total = sum(len(c) for c in classes)
    click.echo(f"{total} subgroups in {len(classes)} conjugacy classes")
    for cls in classes:
        rep = cls[0]
        gens = ", ".join(to_cycles(g) for g in rep.generators) or "()"
        # a subgroup is normal exactly when its class is itself
        flag = " normal" if len(cls) == 1 else ""
        click.echo(f"  order {rep.order:>4}  x{len(cls)}{flag}  <{gens}>")
    sys.exit(EXIT_PASS)


@main.command()
@click.option("--catalog", "catalog_path", default="core",
              show_default=True,
              help="Catalog file path, or 'core' for the shipped catalog.")
@click.option("--theorems", default="all", show_default=True,
              help="'all' or comma-separated theorem ids.")
@click.option("--jobs", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--report", "report_path", default=None,
              type=click.Path(), help="Write the JSON report here.")
def verify(catalog_path, theorems, jobs, report_path):
    """Run theorem encodings over a catalog of groups."""
    try:
        path = core_catalog_path() if catalog_path == "core" else catalog_path
        cat = load_catalog(path)
        for w in cat.warnings:
            click.echo(f"warning: {w}", err=True)
        ids = select_theorems(theorems)
    except (CatalogError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    report = run_suite(cat, ids, jobs=jobs)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"report written to {report_path}")
    click.echo(format_summary(report))
    s = report["summary"]
    if s["fail"]:
        sys.exit(EXIT_FAIL)
    if s["skipped"]:
        sys.exit(EXIT_BOUND)
    sys.exit(EXIT_PASS)


@main.group()
def cache():
    """Manage the on-disk subgroup-lattice cache."""


@cache.command("clear")
def cache_clear():
    n = cachemod.clear_cache()
    click.echo(f"removed {n} cache files")
    sys.exit(EXIT_PASS)


@cache.command("stats")
def cache_stats():
    st = cachemod.cache_stats()
    click.echo(f"directory {st['directory']}")
    click.echo(f"files     {st['files']}")
    click.echo(f"bytes     {st['bytes']}")
    sys.exit(EXIT_PASS)


def entry() -> None:  # console-script target
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except BoundExceededError as exc:
        click.echo(f"bound exceeded: {exc}", err=True)
        sys.exit(EXIT_BOUND)
    except (GroupLabError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    entry()
