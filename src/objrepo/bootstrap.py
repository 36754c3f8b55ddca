"""Deposits the shipped type objects into a repository.

The fixture files under ``fixtures/types/`` are recipes, not finished
objects: repositories mint names at deposit, so a mechanism recipe refers to
its signature by label (``"implements": "@type-dc"``) and the reference is
rewritten to the freshly minted URN while bootstrapping. This keeps the type
registry made of ordinary deposited objects even in the smallest demo.
"""

from __future__ import annotations

from importlib import resources

from . import shape
from .canonical import canonical_bytes
from .errors import BadArguments
from .kernel import BUILTIN_KINDS


def load_recipes() -> list[dict]:
    """Shipped recipes, signatures before mechanisms, stable order."""
    root = resources.files("objrepo").joinpath("fixtures/types")
    recipes = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            recipes.append(shape.load(entry.read_bytes(), BadArguments, entry.name))
    recipes.sort(key=lambda r: (r.get("kind") != "SIGNATURE",))
    return recipes


def bootstrap_types(client, recipes: list[dict] | None = None) -> dict[str, str]:
    """Deposit each recipe as a digital object carrying its document stream
    and built-in disseminator; returns label -> minted URN.

    ``client`` needs the staging surface: create_object, add_datastream,
    add_disseminator, deposit (the wire RepositoryClient provides it).
    """
    if recipes is None:
        recipes = load_recipes()
    minted: dict[str, str] = {}
    for recipe in recipes:
        label, kind = recipe.get("label"), recipe.get("kind")
        if not label or kind not in BUILTIN_KINDS:
            raise BadArguments(f"invalid type recipe: label={label!r} kind={kind!r}")
        type_urn, structure_id, mime = BUILTIN_KINDS[kind]
        document = dict(recipe["document"])
        if kind != "SIGNATURE":
            implements = recipe.get("implements", "")
            if implements.startswith("@"):
                ref = implements[1:]
                if ref not in minted:
                    raise BadArguments(f"recipe {label}: unknown signature label {ref!r}")
                implements = minted[ref]
            document["implements"] = implements

        handle = client.create_object()
        ds_id = client.add_datastream(handle, mime, canonical_bytes(document))
        client.add_disseminator(
            handle, content_type=type_urn, bindings={structure_id: [ds_id]}, kind=kind
        )
        minted[label] = client.deposit(handle)
    return minted
