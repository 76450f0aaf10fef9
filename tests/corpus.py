"""A seeded differential corpus for the command line.

Draws small inputs (at most 6 players) from a fixed seed: closed and
non-closed set systems, ``--poset`` documents, games with integer and
``p/q`` worths, collection documents (valid, infeasible, non-nested with
kind ``weber``, holding the grand coalition, with an unknown kind) and
malformed documents.  Every verb runs on them in-process through
``boundedcore.cli.main``, under each ``--method``, each ``--collection``
(none, the named ones, a document path) and ``--format raw``.  For each
query the sha256 of stdout and of stderr and the exit code are kept in
``corpus_digests.json`` beside this file, so a claim that reports are
unchanged is one command:

    python tests/corpus.py --check     # names the first query that differs
    python tests/corpus.py --record    # rewrites the digests

Input files are written to a temporary directory and passed by relative
name, so no message depends on where the corpus runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "corpus_digests.json"
sys.path.insert(0, str(HERE.parent / "src"))

from boundedcore.cli import main  # noqa: E402

SEED = 20261019
METHODS = ("all", "irredundant", "weber", "gx", "grabisch_xie")
NAMED = ("irredundant", "weber", "gx", "grabisch_xie")
SYSTEM_VERBS = ("classify", "closure", "chains", "rays")
GAME_VERBS = ("core", "weber", "verify-inclusion")


def _members(mask: int, n: int) -> list[int]:
    return [p for p in range(1, n + 1) if mask >> (p - 1) & 1]


def _system_doc(n: int, masks) -> dict:
    ordered = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    return {"n": n, "sets": [_members(m, n) for m in ordered]}


def _random_masks(rng: random.Random, n: int) -> set[int]:
    """∅, N and 1 to 2n random sets between them (n >= 2)."""
    full = (1 << n) - 1
    count = rng.randint(1, 2 * n)
    return {0, full} | {rng.randint(1, full - 1) for _ in range(count)}


def _separating_masks(rng: random.Random, n: int) -> set[int]:
    """Random sets, drawn until every two players are told apart by one of them."""
    masks = _random_masks(rng, n)
    full = (1 << n) - 1
    while any(
        all((m >> i & 1) == (m >> j & 1) for m in masks) for i in range(n) for j in range(i + 1, n)
    ):
        masks.add(rng.randint(1, full - 1))
    return masks


def _closed(masks: set[int]) -> set[int]:
    out = set(masks)
    while True:
        more = {a | b for a in out for b in out} | {a & b for a in out for b in out}
        if more <= out:
            return out
        out |= more


def _random_relations(rng: random.Random, n: int) -> list[list[int]]:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.3]
    return [[order[a], order[b]] for a, b in chosen]


def _downsets(n: int, relations) -> set[int]:
    return {
        m
        for m in range(1 << n)
        if all(m >> (i - 1) & 1 for i, j in relations if m >> (j - 1) & 1)
    }


def _worth(rng: random.Random, mask: int, fractional: bool):
    size = bin(mask).count("1")
    if fractional and rng.random() < 0.5:
        return f"{rng.randint(-3, 3 * size * size + 3)}/{rng.randint(2, 4)}"
    if rng.random() < 0.5:
        return size * size + rng.randint(0, 1) * size  # integer worth, as a JSON int
    return str(rng.randint(-2, size * size + 2))


def _game_doc(rng: random.Random, n: int, masks: set[int], fractional: bool) -> dict:
    system = _system_doc(n, masks)
    values = {
        ",".join(map(str, _members(m, n))): _worth(rng, m, fractional)
        for m in sorted(masks)
        if m
    }
    return {"system": system, "values": values}


def _chain(masks: set[int], n: int) -> list[int]:
    """A strictly increasing run of proper nonempty sets, greedy from the smallest."""
    full = (1 << n) - 1
    chain: list[int] = []
    for m in sorted(masks, key=lambda m: (bin(m).count("1"), m)):
        if m in (0, full):
            continue
        if not chain or (chain[-1] & ~m == 0 and chain[-1] != m):
            chain.append(m)
    return chain


def _collection_docs(rng: random.Random, n: int, masks: set[int]) -> dict[str, dict]:
    full = (1 << n) - 1
    inner = sorted(m for m in masks if m not in (0, full))
    outside = [m for m in range(1, full) if m not in masks]
    chain = _chain(masks, n)
    docs = {
        "valid": {"kind": "custom", "sets": [_members(m, n) for m in inner]},
        "holds_n": {"sets": [_members(full, n)]},
        "bad_kind": {"kind": "bogus", "sets": [_members(m, n) for m in inner[:1]]},
    }
    if outside:
        docs["infeasible"] = {"sets": [_members(rng.choice(outside), n)]}
    if len(chain) >= 2:
        docs["non_nested"] = {"kind": "weber", "sets": [_members(m, n) for m in reversed(chain)]}
    return docs


MALFORMED_TEXT = {
    "not_json.json": "{not json",
    "empty.json": "",
    "a_list.json": "[1, 2, 3]",
    "no_sets.json": '{"n": 3}',
    "no_empty.json": '{"n": 3, "sets": [[1], [1, 2, 3]]}',
    "no_grand.json": '{"n": 3, "sets": [[], [1]]}',
    "out_of_range.json": '{"n": 3, "sets": [[], [4], [1, 2, 3]]}',
    "duplicate.json": '{"n": 3, "sets": [[], [1], [1], [1, 2, 3]]}',
    "n_zero.json": '{"n": 0, "sets": [[]]}',
    "n_too_big.json": '{"n": 17, "sets": [[]]}',
    "sets_not_lists.json": '{"n": 2, "sets": [0, 3]}',
    "cyclic_poset.json": '{"n": 3, "relations": [[1, 2], [2, 3], [3, 1]]}',
    "float_worth.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"1": 0.5, "1,2": 1}}',
    "bool_worth.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"1": true, "1,2": 1}}',
    "zero_denominator.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"1": "1/0", "1,2": 1}}',
    "missing_worth.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"1,2": 1}}',
    "infeasible_worth.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"1": 0, "2": 0, "1,2": 1}}',
    "bad_key.json": '{"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": {"one": 0, "1,2": 1}}',
    "collection_no_sets.json": '{"kind": "custom"}',
}


def build(directory: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs into ``directory`` and return the queries: (id, argv)."""
    rng = random.Random(SEED)
    queries: list[tuple[str, list[str]]] = []

    def write(name: str, document) -> str:
        (directory / name).write_text(json.dumps(document))
        return name

    def add(*argv: str) -> None:
        queries.append((" ".join(argv), list(argv)))

    for k in range(100):
        n = rng.randint(2, 6)
        shape = k % 5
        if shape == 4:
            relations = _random_relations(rng, n)
            source = ["--poset", write(f"poset{k:02d}.json", {"n": n, "relations": relations})]
        else:
            if shape == 0:
                masks = _random_masks(rng, n)
            elif shape == 1:
                masks = _closed(_random_masks(rng, n))
            elif shape == 2:
                masks = _downsets(n, _random_relations(rng, n))
            else:
                masks = _separating_masks(rng, n)
            source = ["--system", write(f"system{k:02d}.json", _system_doc(n, masks))]
        for verb in SYSTEM_VERBS:
            add(verb, *source)
        for method in METHODS:
            add("normal", *source, "--method", method)
        add("rays", *source, "--format", "raw")
        add("normal", *source, "--format", "raw")

    for k in range(48):
        n = rng.randint(2, 5)
        shape = k % 4
        if shape == 0:
            masks = _downsets(n, _random_relations(rng, n))
        elif shape == 1:
            masks = _closed(_random_masks(rng, n))
        elif shape == 2:
            masks = _separating_masks(rng, n)
        else:
            masks = _random_masks(rng, n)
        game = write(f"game{k:02d}.json", _game_doc(rng, n, masks, fractional=k % 2 == 1))
        collections = [None, *NAMED]
        for label, document in _collection_docs(rng, n, masks).items():
            collections.append(write(f"game{k:02d}_{label}.json", document))
        for verb in GAME_VERBS:
            for spec in collections:
                add(verb, "--game", game, *(() if spec is None else ("--collection", spec)))
        add("core", "--game", game, "--format", "raw")

    for name, text in MALFORMED_TEXT.items():
        (directory / name).write_text(text)
        if "worth" in name or name == "bad_key.json":
            add("core", "--game", name)
        elif name == "collection_no_sets.json":
            add("core", "--game", "game00.json", "--collection", name)
        elif name == "cyclic_poset.json":
            add("classify", "--poset", name)
        else:
            add("classify", "--system", name)
            add("core", "--game", name)
    add("classify", "--system", "missing.json")
    add("classify", "--system", "system00.json", "--poset", "poset04.json")
    add("rays")
    add("core", "--game", "game00.json", "--collection", "missing.json")
    add("reproduce")
    return queries


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> list:
    """``[sha256(stdout), sha256(stderr), exit code]`` of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [_sha(out.getvalue()), _sha(err.getvalue()), code]


def digests() -> dict[str, list]:
    """Run every query of the corpus and return its digests by id."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return {qid: run(argv) for qid, argv in build(Path(scratch))}
        finally:
            os.chdir(here)


def first_difference() -> str | None:
    """The first query whose digests differ from the recorded ones, or None."""
    recorded = json.loads(DIGESTS.read_text())
    got = digests()
    for qid, want in recorded.items():
        if qid not in got:
            return f"{qid}: recorded but no longer drawn"
        if got[qid] != want:
            streams = [name for name, a, b in zip(("stdout", "stderr", "exit code"), got[qid], want) if a != b]
            return f"{qid}: {', '.join(streams)} differ"
    extra = [qid for qid in got if qid not in recorded]
    if extra:
        return f"{extra[0]}: drawn but not recorded"
    return None


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the recorded digests")
    mode.add_argument("--record", action="store_true", help="rewrite the recorded digests")
    args = parser.parse_args()
    if args.record:
        got = digests()
        # one line per query, so a changed digest is one changed line
        lines = [f"{json.dumps(qid)}: {json.dumps(digest)}" for qid, digest in got.items()]
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(got)} queries")
        return 0
    difference = first_difference()
    if difference is not None:
        print(f"corpus differs: {difference}")
        return 1
    print(f"{len(json.loads(DIGESTS.read_text()))} queries match")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
