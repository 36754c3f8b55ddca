"""Seeded object recipes and the expected bytes of every request on them.

Everything here is derived from the bytes the generator itself writes: the
element lines a MARC record crosswalks to, the page and image bytes a
pipeline selects, count text, stamp suffixes and which principal an ACL
denies. Nothing calls objrepo to compute an expectation, so a server that
returns wrong bytes is caught rather than agreed with.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

READER = "reader"  # allowed by every ACL the generator writes
INTRUDER = "intruder"  # denied by every ACL the generator writes

ACL_MIME = "application/x-fedora-acl+json"

# MARC (tag, subfield) -> element, as the crosswalk step is documented to map.
CROSSWALK = {
    ("100", "a"): "Creator",
    ("245", "a"): "Title",
    ("260", "b"): "Publisher",
    ("260", "c"): "Date",
    ("520", "a"): "Description",
    ("650", "a"): "Subject",
}
UNMAPPED = [("001", "a"), ("300", "a"), ("500", "a"), ("856", "u")]

# Method lists of the shipped signatures and the constant texts of the book
# mechanisms, written out here as the independent expectation.
SIGNATURE_METHODS = {
    "type-dc": ["getDCField", "getDCRecord"],
    "type-book": ["getTableOfContents", "getPage", "getPageCount"],
    "type-photoalbum": [
        "getThumbnail", "getImageForThumbnail", "getImageForThumbnailId", "getThumbnailCount",
    ],
}
TOC_TEXT = {
    "mech-book-gif": b"Pages are addressed 1..getPageCount() in reading order.\n",
    "mech-book-gif2": b"Leaf n is fetched with getPage(n).\n",
}
BOOK_STRUCTURE = {"mech-book-gif": "pages", "mech-book-gif2": "leaves"}

_WORDS = (
    "whale harbor ledger lantern orchard compass granite meadow thimble quarry "
    "saffron beacon cobalt willow falcon tundra ember glacier marble prairie"
).split()

# ACL documents: (bytes, stamp text or None). Every one allows READER on all
# methods and denies INTRUDER; the set is small so documents repeat
# byte-for-byte across objects.
ACLS = [
    (
        json.dumps({"default": "deny", "entries": [
            {"principal": READER, "methods": ["*"], "effect": "allow"}]}).encode(),
        None,
    ),
    (
        json.dumps({"default": "deny", "entries": [
            {"principal": READER, "methods": ["*"], "effect": "allow",
             "transforms": [{"op": "stamp", "text": "licensed to reader"}]}]}).encode(),
        "licensed to reader",
    ),
    (
        json.dumps({"default": "allow", "entries": [
            {"principal": INTRUDER, "methods": ["*"], "effect": "deny", "reason": "blocked"}]}).encode(),
        None,
    ),
]


@dataclass
class Call:
    method: str
    args: dict
    mime: str
    expected: bytes


@dataclass
class Recipe:
    """One object to author: its streams in creation order (so stream ids
    are DS1, DS2, ...), the disseminator and optional ACL, and every
    dissemination it can answer with the bytes it must answer."""

    kind: str
    type_label: str
    mech_label: str
    streams: list[tuple[str, bytes]]
    bindings: dict[str, list[str]]
    calls: list[Call]
    acl: int | None = None  # index into ACLS
    name: str | None = None
    locations: list[int] = field(default_factory=list)  # repo indexes, naming order

    def all_streams(self) -> list[tuple[str, str, bytes]]:
        """(id, mime, bytes) of every stream the deposited object holds."""
        out = [(f"DS{i}", mime, data) for i, (mime, data) in enumerate(self.streams, start=1)]
        if self.acl is not None:
            out.append((f"DS{len(self.streams) + 1}", ACL_MIME, ACLS[self.acl][0]))
        return out

    def user_bytes(self) -> int:
        return sum(len(data) for _, _, data in self.all_streams())

    def expect(self, call: Call, principal: str) -> bytes | None:
        """Expected bytes for ``principal``; None means ACCESS_DENIED."""
        if self.acl is None:
            return call.expected
        if principal != READER:
            return None
        stamp = ACLS[self.acl][1]
        if stamp is None:
            return call.expected
        return call.expected + b"\n--stamp:" + stamp.encode()

    def readable_streams(self) -> list[tuple[str, str, bytes]]:
        """Content streams of 1 KB or more, the datastream-read targets."""
        return [s for s in self.all_streams()[: len(self.streams)] if len(s[2]) >= 1024]


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n)).capitalize()


def _gif(rng: random.Random, lo: int, hi: int) -> bytes:
    return b"GIF89a" + rng.randbytes(rng.randint(lo, hi) - 6)


def _dc_calls(elements: list[tuple[str, str]], record: bytes) -> list[Call]:
    calls = [Call("getDCRecord", {}, "application/x-dc-lines", record)]
    first: dict[str, str] = {}
    for element, value in elements:
        first.setdefault(element, value)
    for element, value in first.items():
        calls.append(Call("getDCField", {"field": element}, "text/plain", value.encode()))
    return calls


def marc_recipe(rng: random.Random) -> Recipe:
    fields = [(tag, sub) for tag, sub in CROSSWALK]
    fields += [("650", "a")] * rng.randint(0, 2)  # repeated subjects: first one wins
    fields += rng.sample(UNMAPPED, rng.randint(0, len(UNMAPPED)))  # dropped by the crosswalk
    rng.shuffle(fields)
    lines, elements = [], []
    for tag, sub in fields:
        value = _phrase(rng, rng.randint(1, 6))
        lines.append(f"{tag} ${sub} {value}\n")
        if (tag, sub) in CROSSWALK:
            elements.append((CROSSWALK[(tag, sub)], value))
    record = "".join(f"{e}: {v}\n" for e, v in elements).encode()
    marc = "".join(lines).encode()
    return Recipe("marc", "type-dc", "mech-marc2dc", [("application/x-marc-lines", marc)],
                  {"marc": ["DS1"]}, _dc_calls(elements, record))


def dc_recipe(rng: random.Random) -> Recipe:
    names = list(dict.fromkeys(CROSSWALK.values()))
    elements = [(e, _phrase(rng, rng.randint(1, 6))) for e in rng.sample(names, rng.randint(2, len(names)))]
    record = "".join(f"{e}: {v}\n" for e, v in elements).encode()
    return Recipe("dc", "type-dc", "mech-dc-pass", [("application/x-dc-lines", record)],
                  {"dc": ["DS1"]}, _dc_calls(elements, record))


def book_recipe(rng: random.Random, lo: int = 1024, hi: int = 65536) -> Recipe:
    mech = rng.choice(sorted(BOOK_STRUCTURE))
    pages = [_gif(rng, lo, hi) for _ in range(rng.randint(2, 4))]
    calls = [Call("getTableOfContents", {}, "text/plain", TOC_TEXT[mech]),
             Call("getPageCount", {}, "text/plain", str(len(pages)).encode())]
    calls += [Call("getPage", {"n": str(i)}, "image/gif", p) for i, p in enumerate(pages, start=1)]
    return Recipe("book", "type-book", mech, [("image/gif", p) for p in pages],
                  {BOOK_STRUCTURE[mech]: [f"DS{i}" for i in range(1, len(pages) + 1)]}, calls)


def album_recipe(rng: random.Random, lo: int = 1024, hi: int = 65536) -> Recipe:
    n = rng.randint(2, 4)
    thumbs = [_gif(rng, 64, 1024) for _ in range(n)]
    images = [_gif(rng, lo, hi) for _ in range(n)]
    thumb_ids = [f"DS{i}" for i in range(1, n + 1)]
    image_ids = [f"DS{i}" for i in range(n + 1, 2 * n + 1)]
    # Rows pair a thumb with an image in a shuffled order, so the lookup
    # step has to read the table rather than rely on stream order.
    rows = list(range(n))
    rng.shuffle(rows)
    pairing = list(range(n))
    rng.shuffle(pairing)
    table = "".join(f"{thumb_ids[r]} {image_ids[pairing[r]]}\n" for r in rows).encode()
    calls = [Call("getThumbnailCount", {}, "text/plain", str(n).encode())]
    calls += [Call("getThumbnail", {"n": str(i)}, "image/gif", t) for i, t in enumerate(thumbs, start=1)]
    for ordinal, r in enumerate(rows, start=1):
        image = images[pairing[r]]
        calls.append(Call("getImageForThumbnail", {"n": str(ordinal)}, "image/gif", image))
        calls.append(Call("getImageForThumbnailId", {"thumb": thumb_ids[r]}, "image/gif", image))
    streams = [("image/gif", t) for t in thumbs] + [("image/gif", i) for i in images]
    streams.append(("application/x-structure-cornell-1", table))
    bindings = {"structure": [f"DS{2 * n + 1}"], "thumbs": thumb_ids, "images": image_ids}
    return Recipe("album", "type-photoalbum", "mech-photoalbum", streams, bindings, calls)


def large_recipe(rng: random.Random, size: int) -> Recipe:
    """A book whose first page is ``size`` bytes: the large-object case."""
    recipe = book_recipe(rng)
    big = b"GIF89a" + rng.randbytes(size - 6)
    recipe.streams[0] = ("image/gif", big)
    for call in recipe.calls:
        if call.method == "getPage" and call.args["n"] == "1":
            call.expected = big
    return recipe


BUILDERS = {"marc": marc_recipe, "dc": dc_recipe, "book": book_recipe, "album": album_recipe}


def mixed_recipe(rng: random.Random, guarded_share: float, kinds=("marc", "dc", "book", "album")) -> Recipe:
    recipe = BUILDERS[rng.choice(kinds)](rng)
    if rng.random() < guarded_share:
        recipe.acl = rng.randrange(len(ACLS))
    return recipe
