"""Command-line front end.

One verb per concept: classify, closure, chains, rays, normal, core, weber,
verify-inclusion, reproduce.  All reports are deterministic JSON on stdout
(identical inputs give byte-identical output); rationals travel as ``p/q``
strings.  Exit codes: 0 success, 1 invalid input or usage, or stdout
closed before the output was written (nothing goes to stderr then), 2
internal inconsistency between two computation routes that must agree.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from .core_weber import (
    Game,
    _restricted_chain_payoffs,
    _restricted_core_generators,
    build_restricted_core,
    restricted_weber,
    verify_inclusion,
)
from .errors import DocumentError, InternalInconsistency, ValidationError
from .lattice import downsets, extract_poset, load_poset
from .normal import (
    NormalCollection,
    algo1_irredundant,
    grabisch_xie_collection,
    lift_collection_detailed,
    validate_normal,
    weber_collection,
)
from .rays import rays_general, rays_regular, wuc_ray_equality_condition
from .setsystem import (
    _HIGH_MEMBERS,
    _INTS_ONLY,
    _LOW_MEMBERS,
    _member_lists,
    _sets_of,
    classify,
    closure,
    load_set_system,
    maximal_chains,
    members,
)
from .vectors import format_rational, is_transfer

# every name --method and --collection accept for a named collection, mapped to its report key
COLLECTION_NAMES = {
    "irredundant": "irredundant",
    "weber": "weber",
    "gx": "grabisch_xie",
    "grabisch_xie": "grabisch_xie",
}
METHOD_NAMES = tuple(dict.fromkeys(COLLECTION_NAMES.values()))
_STRS_ONLY = frozenset({str})
_LISTS_ONLY = frozenset({list})
# stands for a line break and the indentation of a list of coalitions' players
_MARK = "\x00"
# the player text of each byte value of a mask, every player after a comma and the mark
_LOW_TEXT = tuple("".join([f",{_MARK}{p}" for p in players]) for players in _LOW_MEMBERS)
_HIGH_TEXT = tuple("".join([f",{_MARK}{p}" for p in players]) for players in _HIGH_MEMBERS)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class CoalitionList:
    """A report's list of coalitions, held as their masks until it is written:
    :func:`render` and the raw format write it as the list of their member lists."""

    __slots__ = ("masks",)

    def __init__(self, masks: tuple[int, ...]):
        self.masks = masks


_COALITION_LISTS = frozenset({CoalitionList})


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer longer than int() converts
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply to read") from None


def _system_from_args(args):
    if getattr(args, "poset", None):
        if getattr(args, "system", None):
            raise DocumentError("give either --system or --poset, not both")
        return downsets(load_poset(_read_json(args.poset)))
    if getattr(args, "system", None):
        return load_set_system(_read_json(args.system))
    raise DocumentError("an input system is required (--system or --poset)")


def _render_vectors(vectors):
    'each vector as a list of rational strings; an all-int vector needs only str'
    return [
        list(map(str, v)) if _INTS_ONLY.issuperset(map(type, v)) else list(map(format_rational, v))
        for v in vectors
    ]


def _vectors_text(vectors) -> str:
    return "[" + ", ".join(f"({','.join(row)})" for row in _render_vectors(sorted(vectors))) + "]"


def _structure_document(system) -> dict:
    report = classify(system)
    return {
        "n": system.n,
        "set_count": len(system),
        "regular": report.is_regular,
        "weakly_union_closed": report.is_weakly_union_closed,
        "union_intersection_closed": report.is_union_intersection_closed,
        "height": report.height,
        "closure_height": report.closure_height,
    }


def _rays_document(system, report) -> dict:
    """Oracle ray report (``rays_general(system)``) plus every applicable
    structure-aware route.

    The routes must agree with the oracle; a mismatch aborts with the
    internal-inconsistency exit code because it means a theorem failed.
    """
    doc = {
        "n": system.n,
        "extremal_rays": _render_vectors(report.extremal_rays),
        "lineality": _render_vectors(report.lineality),
        "all_pair_form": report.all_pair_form,
        "equals_closure_cone": report.equals_closure_cone,
    }
    structure = classify(system)
    methods: dict = {"oracle": doc["extremal_rays"]}
    oracle_set = set(report.extremal_rays)
    if structure.is_regular:
        # a closed system of height n is a downset lattice, which is regular, and
        # the regular route's pairs are then its covering pairs: one list serves both
        pairs = rays_regular(system)
        vectors = set(pairs)
        names = [f"(+{r.index(1) + 1},-{r.index(-1) + 1})" for r in pairs]
        if structure.is_union_intersection_closed and structure.height == system.n:
            if report.lineality or vectors != oracle_set:
                raise InternalInconsistency(
                    "covering-pair ray enumeration disagrees with the oracle on the sets "
                    f"{system.to_document()['sets']}: covering pairs give {_vectors_text(vectors)}, "
                    f"the oracle's rays are {_vectors_text(oracle_set)}, "
                    f"its lineality {_vectors_text(report.lineality)}"
                )
            methods["distributive"] = names
        oracle_pairs = set(filter(is_transfer, oracle_set))
        if report.lineality or vectors != oracle_pairs:
            raise InternalInconsistency(
                "the regular route must yield exactly the transfer-form extremal "
                f"rays of the oracle, but on the sets {system.to_document()['sets']} it gives "
                f"{_vectors_text(vectors)}; the oracle's transfer rays are "
                f"{_vectors_text(oracle_pairs)}, its lineality {_vectors_text(report.lineality)}"
            )
        methods["regular"] = {"rays": names, "complete": vectors == oracle_set}
    if structure.is_weakly_union_closed:
        doc["wuc_sufficient_condition"] = wuc_ray_equality_condition(system)
        if doc["wuc_sufficient_condition"] and not report.equals_closure_cone:
            raise InternalInconsistency(
                "the sufficient condition held but the closure cone differs on the sets "
                f"{system.to_document()['sets']}: wuc_sufficient_condition=True, "
                "equals_closure_cone=False"
            )
    doc["methods"] = methods
    return doc


def _lift_document(outcome) -> dict:
    doc = {
        "sets": _member_lists(outcome.collection.sets),
        "kind": outcome.collection.kind,
        "changed": outcome.changed,
        "replacements": [
            {
                "original": list(members(original)),
                "chosen": list(members(chosen)) if chosen is not None else None,
                "alternatives": _member_lists(alternatives),
            }
            for original, chosen, alternatives in outcome.replacements
        ],
        "extra_sets": _member_lists(outcome.extra_sets),
        # the lift returns only once its collection freezes every cone generator
        "validated": True,
    }
    return doc


def _named_collections(system, names):
    """The named collections built on the generating poset of the closure,
    only those in ``names``, the irredundant one also when the Weber
    collection is asked for, since it is built from it."""
    poset = extract_poset(closure(system))
    named = {}
    if "irredundant" in names or "weber" in names:
        named["irredundant"] = algo1_irredundant(poset)
    if "weber" in names:
        named["weber"] = weber_collection(named["irredundant"])
    if "grabisch_xie" in names:
        named["grabisch_xie"] = grabisch_xie_collection(poset)
    return named


def _lift_named(system, names):
    """The named collections on the closure, each lifted into the system."""
    named = _named_collections(system, names)
    return named, {name: lift_collection_detailed(system, named[name]) for name in names}


def _collections_document(system, lifted) -> dict:
    """Report of ``lifted``, a :func:`_lift_named` result on ``system``."""
    named, lifts = lifted
    closed = closure(system)
    out: dict = {
        "n": system.n,
        "height": extract_poset(closed).height(),
        "already_closed": closed is system,
        "collections": {},
    }
    for name, outcome in lifts.items():
        collection = named[name]
        out["collections"][name] = {
            "sets": _member_lists(collection.sets),
            "kind": collection.kind,
            "feasible": all(m in system for m in collection),
            # extract_poset accepted the closure, a downset lattice of height n, and
            # each named collection bounds such a lattice's core by construction
            "validated_on_closure": True,
            "lift": _lift_document(outcome),
        }
    return out


def _resolve_collection(system, spec: str | None) -> NormalCollection:
    """Named collections are built on the closure and lifted; paths are loaded
    as ``{"kind":..., "sets":...}`` documents and validated, never trusted.
    Without a spec nothing is frozen."""
    if not spec:
        return NormalCollection((), system.n, kind="custom")
    if spec in COLLECTION_NAMES:
        name = COLLECTION_NAMES[spec]
        return _lift_named(system, (name,))[-1][name].collection
    document = _read_json(spec)
    if not isinstance(document, dict) or "sets" not in document:
        raise DocumentError('collection documents need a "sets" key')
    kind = document.get("kind", "custom")
    sets = tuple(_sets_of(document, system.n))
    try:
        collection = NormalCollection(sets, system.n, kind=kind)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if not validate_normal(system, collection):
        raise DocumentError(
            "the supplied collection does not bound the core; "
            "freezing those payoffs still leaves an unbounded direction"
        )
    return collection


def _h_document(poly) -> dict:
    # a row's coefficients are a coalition's 0/1 ints
    row = lambda pair: {"coeffs": list(map(str, pair[0])), "bound": format_rational(pair[1])}
    return {
        "inequalities": [row(p) for p in poly.inequalities],
        "equalities": [row(p) for p in poly.equalities],
    }


def _analysis_document(system, game=None) -> dict:
    """Full pipeline report for one input; this is what `reproduce` freezes."""
    doc: dict = {"structure": _structure_document(system)}
    report = rays_general(system)
    doc["rays"] = _rays_document(system, report)
    # the core is bounded exactly when its recession cone has no ray and no line
    doc["boundedness"] = {"core": not report.extremal_rays and not report.lineality}
    try:
        lifted = _lift_named(system, METHOD_NAMES)
    except ValidationError as exc:
        if game is not None:
            raise
        doc["collections"] = {"error": str(exc)}
        return doc
    doc["collections"] = _collections_document(system, lifted)
    lifts = lifted[-1]
    # a lift returns only once its collection bounds the core
    doc["boundedness"]["restricted_core"] = dict.fromkeys(lifts, True)
    if game is not None:
        collection = lifts["weber"].collection
        verdict = verify_inclusion(game, collection)
        doc["inclusion"] = _verdict_document(collection, verdict)
        doc["inclusion"]["weber_vertices"] = _render_vectors(restricted_weber(game, collection).vertices)
    return doc


def _verdict_document(collection, verdict) -> dict:
    return {
        "collection": _member_lists(collection.sets),
        "holds": verdict.holds,
        "witness": None if verdict.witness is None else [format_rational(c) for c in verdict.witness],
    }


def _member_texts(masks, inner: str) -> list[str]:
    """Each mask's member list as report text, as an item at indentation
    ``inner``; its players still start at the mark, which the caller
    replaces with their line break and indentation."""
    close = f"\n{inner}]"
    return [f"[{(_LOW_TEXT[m & 0xFF] + _HIGH_TEXT[m >> 8])[1:]}{close}" if m else "[]" for m in masks]


def render(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for report values,
    where a :class:`CoalitionList` stands for its member lists.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool,
    None and :class:`CoalitionList`; anything else raises TypeError.  A list
    whose items are all lists of ints, or all lists of strs (a system's
    sets, vectors), is rendered in one loop.  A :class:`CoalitionList`, and
    a list of them (a chains report), is joined from the member text of
    each mask's two bytes, with a mark where each player's line starts, and
    the mark is then replaced by the players' indentation once for the
    whole list.  A list of them renders each distinct mask's text once.
    """

    def write(value, pad: str) -> str:
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = pad + "  "
            sep = ",\n" + inner
            kinds = set(map(type, value))
            if kinds == _INTS_ONLY:
                return f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{pad}]"
            if kinds == _STRS_ONLY:
                return f"[\n{inner}{sep.join(map(_quote, value))}\n{pad}]"
            if kinds == _LISTS_ONLY:
                # the C-level type set of the leaves excludes bool and None, whose type is not int
                leaves = set(map(type, itertools.chain.from_iterable(value)))
                if leaves == _INTS_ONLY or leaves == _STRS_ONLY:
                    leaf = int.__repr__ if leaves == _INTS_ONLY else _quote
                    deeper = inner + "  "
                    leaf_sep = ",\n" + deeper
                    texts = [
                        f"[\n{deeper}{leaf_sep.join(map(leaf, item))}\n{inner}]" if item else "[]" for item in value
                    ]
                    return f"[\n{inner}{sep.join(texts)}\n{pad}]"
            if kinds == _COALITION_LISTS:
                deeper = inner + "  "
                distinct = set().union(*[item.masks for item in value])
                member_text = dict(zip(distinct, _member_texts(distinct, deeper))).__getitem__
                leaf_sep = ",\n" + deeper
                texts = [
                    f"[\n{deeper}{leaf_sep.join(map(member_text, item.masks))}\n{inner}]" if item.masks else "[]"
                    for item in value
                ]
                return f"[\n{inner}{sep.join(texts)}\n{pad}]".replace(_MARK, "\n" + deeper + "  ")
            return f"[\n{inner}{sep.join([write(item, inner) for item in value])}\n{pad}]"
        if isinstance(value, str):
            return _quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
            inner = pad + "  "
            body = (",\n" + inner).join([f"{_quote(key)}: {write(value[key], inner)}" for key in sorted(value)])
            return f"{{\n{inner}{body}\n{pad}}}"
        if isinstance(value, CoalitionList):
            if not value.masks:
                return "[]"
            inner = pad + "  "
            body = (",\n" + inner).join(_member_texts(value.masks, inner))
            return f"[\n{inner}{body}\n{pad}]".replace(_MARK, "\n" + inner + "  ")
        raise TypeError(f"reports hold no {type(value).__name__} values")

    return write(value, "")


def _expand_coalitions(value):
    'the raw format\'s ``default``: a CoalitionList as its member lists'
    if isinstance(value, CoalitionList):
        return _member_lists(value.masks)
    raise TypeError(f"reports hold no {type(value).__name__} values")


def _emit(payload: dict, args) -> None:
    if args.format == "raw":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_expand_coalitions)
    else:
        text = render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text)


def _cmd_classify(args) -> dict:
    return _structure_document(_system_from_args(args))


def _cmd_closure(args) -> dict:
    closed = closure(_system_from_args(args))
    return {"n": closed.n, "sets": CoalitionList(closed.masks())}


def _cmd_chains(args) -> dict:
    system = _system_from_args(args)
    chains = maximal_chains(system)
    payload = {
        "n": system.n,
        "count": len(chains),
        "chains": list(map(CoalitionList, chains)),
    }
    # F is regular exactly when every maximal chain adds one player per step
    if all(len(chain) == system.n + 1 for chain in chains):
        payload["orders"] = [[(b ^ a).bit_length() for a, b in zip(chain, chain[1:])] for chain in chains]
    return payload


def _cmd_rays(args) -> dict:
    system = _system_from_args(args)
    return _rays_document(system, rays_general(system))


def _cmd_normal(args) -> dict:
    system = _system_from_args(args)
    wanted = METHOD_NAMES if args.method == "all" else (COLLECTION_NAMES[args.method],)
    return _collections_document(system, _lift_named(system, wanted))


def _cmd_core(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection)
    poly = build_restricted_core(game, collection)
    gens = _restricted_core_generators(game, collection, poly)
    if not gens.empty:
        bounded = not gens.extremal_rays and not gens.lineality
    elif args.collection:
        # a named collection is lifted and a collection document validated by
        # _resolve_collection, so either bounds the core already
        bounded = True
    else:
        # an empty core's V-representation hides its recession cone, which is
        # then the system's cone itself
        bounded = validate_normal(game.system, collection)
    return {
        "collection": _member_lists(collection.sets),
        "h_representation": _h_document(poly),
        "v_representation": {
            "empty": gens.empty,
            "vertices": _render_vectors(gens.vertices),
            "extremal_rays": _render_vectors(gens.extremal_rays),
            "lineality": _render_vectors(gens.lineality),
        },
        "bounded": bounded,
    }


def _cmd_weber(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection)
    payoffs = _restricted_chain_payoffs(game, collection)
    return {
        "collection": _member_lists(collection.sets),
        "restricted_chain_count": sum(payoffs.values()),
        "vertices": _render_vectors(sorted(payoffs)),
    }


def _cmd_verify_inclusion(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection or "weber")
    return _verdict_document(collection, verify_inclusion(game, collection))


FIXTURES = (
    {"name": "downset_lattice_4", "system": "downset_lattice_4.json"},
    {"name": "hierarchy_9", "poset": "hierarchy_9.json"},
    {"name": "nonclosed_line_cone_4", "system": "nonclosed_line_cone_4.json"},
    {"name": "regular_lift_4", "system": "regular_lift_4.json"},
    {"name": "regular_weber_gap_5", "system": "regular_weber_gap_5.json", "game": "regular_weber_gap_5_game.json"},
    {"name": "wuc_condition_fails_4", "system": "wuc_condition_fails_4.json"},
)


def _fixture_payload(entry) -> dict:
    base = resources.files("boundedcore") / "fixtures"
    if "poset" in entry:
        system = downsets(load_poset(json.loads((base / entry["poset"]).read_text())))
    else:
        system = load_set_system(json.loads((base / entry["system"]).read_text()))
    game = None
    if "game" in entry:
        game = Game.from_document(json.loads((base / entry["game"]).read_text()))
    payload = _analysis_document(system, game)
    payload["fixture"] = entry["name"]
    return payload


def _first_difference(got, want, path: str = "$") -> str | None:
    """JSON path of the first place where two parsed documents differ, or None."""
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(got, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found is not None:
                return found
        if len(got) != len(want):
            return f"{path}[{min(len(got), len(want))}]"
        return None
    return None if got == want else path


def _cmd_reproduce(args) -> int:
    base = resources.files("boundedcore") / "fixtures" / "golden"
    failures = 0
    for entry in FIXTURES:
        payload = _fixture_payload(entry)
        text = render(payload) + "\n"
        golden_path = base / f"{entry['name']}.golden.json"
        try:
            golden = golden_path.read_text()
        except FileNotFoundError:
            golden = None
        if golden == text:
            print(f"PASS {entry['name']}")
            continue
        failures += 1
        try:
            where = _first_difference(json.loads(text), json.loads(golden or "null"))
        except json.JSONDecodeError:
            where = "$"
        detail = f" at {where}" if where is not None else " in formatting only"
        print(f"FAIL {entry['name']} (report differs from golden{detail})")
    print(f"{len(FIXTURES) - failures}/{len(FIXTURES)} fixtures match")
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="boundedcore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # each verb's parser, for the one-pass parse of :func:`_parse`
    parser.verbs = sub.choices

    def add(name, func, needs_system=False, needs_game=False, collection=False, method=False):
        p = sub.add_parser(name)
        if needs_system:
            p.add_argument("--system", help="set-system JSON document")
            p.add_argument("--poset", help="poset JSON document (its downsets are used)")
        if needs_game:
            p.add_argument("--game", required=True, help="game JSON document")
        if collection:
            p.add_argument(
                "--collection",
                help=" | ".join(COLLECTION_NAMES) + " | path to a collection document",
            )
        if method:
            p.add_argument(
                "--method",
                default="all",
                choices=("all", *COLLECTION_NAMES),
            )
        p.add_argument("--format", default="report", choices=("report", "raw"))
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(func=func)

    add("classify", _cmd_classify, needs_system=True)
    add("closure", _cmd_closure, needs_system=True)
    add("chains", _cmd_chains, needs_system=True)
    add("rays", _cmd_rays, needs_system=True)
    add("normal", _cmd_normal, needs_system=True, method=True)
    add("core", _cmd_core, needs_game=True, collection=True)
    add("weber", _cmd_weber, needs_game=True, collection=True)
    add("verify-inclusion", _cmd_verify_inclusion, needs_game=True, collection=True)
    # reproduce prints its own lines and returns its exit code, so it takes no report options
    sub.add_parser("reproduce").set_defaults(func=_cmd_reproduce)
    return parser


def _parse(argv) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the verb's own parser run
    once on the rest of argv instead of under the top parser's pass.

    The top parser hands everything after a verb to that verb's parser and
    refuses what it leaves over, which is done here with the same words; an
    empty argv, a first word that is no verb, and argv with ``--`` (whose
    handling differs between Python versions) go through the top parser.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = parser.verbs.get(argv[0]) if argv and "--" not in argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outcome = args.func(args)
        if isinstance(outcome, dict):  # every verb but reproduce returns its report
            _emit(outcome, args)
            return 0
        return outcome
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
