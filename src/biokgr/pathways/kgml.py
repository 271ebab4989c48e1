"""KGML parsing into signed interaction and reaction graphs.

Relation subtypes map to edge signs: activation and expression contribute +1,
inhibition and repression contribute -1. Relations whose subtypes have no sign
mapping (binding, phosphorylation, indirect effect, ...) are not dropped
silently; they are recorded on the graph as skipped. Reaction elements become
substrate→product edges keyed by compound display names, and gene entries
carrying a `reaction` attribute provide the enzyme annotations linking gene
symbols to those edges. A relation from or to a group stands for one from or
to each member, and groups may nest to any depth; a relation through a
group that contains itself makes the document malformed.

One expat pass reads a document. It keeps each top-level `entry`, `relation`
and `reaction` with its attributes and those of the children the graphs use
(`graphics`, `component`, `subtype`, `substrate`, `product`), and the graphs
are built from those records in document order, with no element tree. The
parser reads the document as ElementTree does: namespaces resolved, a `str`
as UTF-8 whatever encoding it declares, and an entity reference that cannot
be expanded an error.
"""
from __future__ import annotations

import re
from functools import cache
from xml.parsers import expat

from biokgr import Error, load_data, substring_pattern
from biokgr.pathways.graphs import PathwayNode, ReactionGraph, SignedEdge, SignedPathwayGraph

SUBTYPE_SIGNS = {
    "activation": 1,
    "expression": 1,
    "inhibition": -1,
    "repression": -1,
}

_EC_PATTERN = re.compile(r"\b(\d+\.\d+\.\d+\.[\dn-]+)\b")
_ACCESSION_LIKE = re.compile(r"^(C|D|G|R)\d{5}$")
_TOP_LEVEL = ("entry", "relation", "reaction")


class MalformedKgml(Error):
    """Raised when a document is not well-formed KGML; carries context."""


@cache
def _endpoint_terms() -> re.Pattern:
    """The disease-endpoint lexicon as one pattern over case-folded text."""
    return substring_pattern(t.casefold() for t in load_data("endpoint_lexicon.json")["terms"])


def _read(document) -> tuple[str, dict[str, str], dict[str, list]]:
    """The root's tag and attributes, and per tag in `_TOP_LEVEL` its top-level
    elements in document order, each as `(attributes, [(child tag, child
    attributes)])` over its direct children."""
    parser = expat.ParserCreate(namespace_separator="}")
    root: list = []
    records: dict[str, list] = {tag: [] for tag in _TOP_LEVEL}
    children: list[tuple[str, dict[str, str]]] = []  # of the open top-level element
    depth = 0

    def start(tag, attributes):
        nonlocal children, depth
        depth += 1
        if depth == 3:
            children.append((tag, attributes))
        elif depth == 2:
            children = []
            elements = records.get(tag)
            if elements is not None:
                elements.append((attributes, children))
        elif depth == 1:
            root.extend((tag, attributes))

    def end(_tag):
        nonlocal depth
        depth -= 1

    # ElementTree reports the first general entity reference it cannot expand:
    # one to an undeclared entity, or to an external one
    external: set[str] = set()  # general entities declared with a system id

    def declared(name, is_parameter_entity, _value, _base, system_id, _public_id, _notation):
        if system_id is not None and not is_parameter_entity:
            external.add(name)

    def unexpandable(name, is_parameter_entity=False):
        if not is_parameter_entity:
            raise _failure(parser.CurrentLineNumber, parser.CurrentColumnNumber,
                           f"undefined entity {f'&{name};'[:100]}")

    def external_reference(context, _base, _system_id, _public_id):
        # the context names every open entity; only the referenced one is external
        unexpandable(next(name for name in context.split("\f") if name in external))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.EntityDeclHandler = declared
    parser.SkippedEntityHandler = unexpandable
    parser.ExternalEntityRefHandler = external_reference
    try:
        # fed as ElementTree feeds it: the document, then an empty final chunk
        parser.Parse(document, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise _failure(exc.lineno, exc.offset, expat.ErrorString(exc.code)) from exc
    finally:
        # these handlers hold the parser: drop them, so that it is freed at once
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
    tag, attributes = root
    # ElementTree writes a namespaced tag as {uri}name
    return ("{" + tag if "}" in tag else tag), attributes, records


def _failure(line: int, column: int, message: str) -> MalformedKgml:
    return MalformedKgml(f"XML parse failure at line {line}, column {column}: "
                         f"{message}: line {line}, column {column}")


def _primary_alias(label: str) -> str:
    first = label.split(",")[0].strip()
    return first.rstrip(".").strip()


def _compound_display(label: str, name: str) -> str:
    label = _primary_alias(label)
    if label and not _ACCESSION_LIKE.match(label):
        return label
    for token in name.split():
        if token.startswith("cpd:"):
            return token[len("cpd:"):]
    return label or name.strip()


def parse_kgml(document: str) -> tuple[SignedPathwayGraph, ReactionGraph]:
    """Parse one KGML document into its signed and reaction graphs.

    A node whose label contains any term of the shipped disease-endpoint
    lexicon (case-insensitive) is marked as a disease endpoint of the signed
    graph. A document that is not well-formed XML, whose root is not
    `<pathway>`, or with a relation through a group that contains itself
    raises `MalformedKgml`.
    """
    tag, attributes, records = _read(document)
    if tag != "pathway":
        raise MalformedKgml(f"root element is <{tag}>, expected <pathway>")

    nodes: dict[str, PathwayNode] = {}
    compounds: dict[str, str] = {}
    entry_key: dict[str, list[str]] = {}  # entry id -> [signed-graph node key]; no group ids
    group_members: dict[str, list[str]] = {}
    compound_key: dict[str, str] = {}     # entry id -> reaction-graph node key
    enzyme_reactions: dict[str, set[str]] = {}

    for entry, children in records["entry"]:
        entry_id = entry.get("id") or ""
        entry_type = entry.get("type") or ""
        name = entry.get("name") or ""
        label = ""
        for child, child_attributes in children:
            if child == "graphics":
                label = child_attributes.get("name") or ""
                break
        if entry_type == "group":
            group_members[entry_id] = [
                child_attributes.get("id") or ""
                for child, child_attributes in children if child == "component"
            ]
            entry_key.pop(entry_id, None)
            continue
        if entry_type == "compound":
            display = _compound_display(label, name)
            if display:
                compound_key[entry_id] = display
                compounds.setdefault(display, display)
            continue
        if entry_type not in ("gene", "map", "enzyme", "ortholog"):
            continue

        if entry_type == "map":
            symbol = _primary_alias(label).removeprefix("TITLE:").strip()
        else:
            symbol = _primary_alias(label)
        if not symbol:  # a name of only whitespace names nothing
            symbol = (name.split() or [entry_id])[0]
        if entry_id not in group_members:
            entry_key[entry_id] = [symbol] if symbol else []

        kegg_ids = tuple([t for t in name.split() if ":" in t])
        ec_found = [t[len("ec:"):] for t in kegg_ids if t.startswith("ec:")]
        if "." in label:  # no EC number without dots
            ec_found += _EC_PATTERN.findall(label)
        ec_numbers = tuple(sorted(set(ec_found)))
        aliases = tuple([a.strip().rstrip(".") for a in label.split(",") if a.strip()])

        node = nodes.get(symbol)
        if node is None:
            nodes[symbol] = PathwayNode(
                symbol=symbol,
                entry_type="gene" if entry_type in ("gene", "enzyme", "ortholog") else entry_type,
                aliases=aliases,
                ec_numbers=ec_numbers,
                graphics_label=label,
                kegg_ids=kegg_ids,
            )
        else:
            nodes[symbol] = node._replace(
                aliases=tuple(dict.fromkeys(node.aliases + aliases)),
                ec_numbers=tuple(sorted(set(node.ec_numbers) | set(ec_numbers))),
                kegg_ids=tuple(dict.fromkeys(node.kegg_ids + kegg_ids)),
            )

        reaction_names = (entry.get("reaction") or "").split()
        if reaction_names and entry_type in ("gene", "enzyme", "ortholog"):
            enzyme_reactions.setdefault(symbol, set()).update(
                reaction.removeprefix("rn:") for reaction in reaction_names
            )

    def resolve_group(entry_id: str) -> list[str]:
        """The node keys an id not in `entry_key` stands for, member by member
        and depth first, with an explicit stack so that no nesting is too deep."""
        if entry_id not in group_members:
            return []
        keys: list[str] = []
        expanding = {entry_id: None}  # the groups being expanded, innermost last
        stack = [iter(group_members[entry_id])]
        while stack:
            for member in stack[-1]:
                if entry_key.get(member):
                    keys += entry_key[member]
                elif member in group_members:
                    if member in expanding:
                        raise MalformedKgml(f"group {member!r} contains itself")
                    expanding[member] = None
                    stack.append(iter(group_members[member]))
                    break
            else:
                stack.pop()
                expanding.popitem()
        return keys

    signed: dict[tuple[str, str, int, str], None] = {}  # each edge once, in first-seen order
    skipped = []
    for relation, children in records["relation"]:
        subtypes = [child_attributes.get("name") or ""
                    for child, child_attributes in children if child == "subtype"]
        subtype_name = next(filter(SUBTYPE_SIGNS.__contains__, subtypes), None)
        entry1, entry2 = relation.get("entry1") or "", relation.get("entry2") or ""
        sources = entry_key.get(entry1) or resolve_group(entry1)
        targets = entry_key.get(entry2) or resolve_group(entry2)
        if subtype_name is None or not sources or not targets:
            skipped.append((entry1, entry2, ";".join(subtypes) or "(no subtype)"))
            continue
        sign = SUBTYPE_SIGNS[subtype_name]
        for src in sources:
            for dst in targets:
                signed[src, dst, sign, subtype_name] = None

    reaction_edges = []
    reaction_substrates: dict[str, tuple[str, ...]] = {}
    reaction_products: dict[str, tuple[str, ...]] = {}
    for reaction, children in records["reaction"]:
        name = (reaction.get("name") or "").removeprefix("rn:")
        substrates = [
            compound_key.get(s.get("id") or "", _strip_cpd(s.get("name")))
            for child, s in children if child == "substrate"
        ]
        products = [
            compound_key.get(p.get("id") or "", _strip_cpd(p.get("name")))
            for child, p in children if child == "product"
        ]
        substrates = [s for s in substrates if s]
        products = [p for p in products if p]
        for compound in substrates + products:
            compounds.setdefault(compound, compound)
        for substrate in substrates:
            for product in products:
                reaction_edges.append((substrate, product, name))
        reaction_substrates[name] = tuple(substrates)
        reaction_products[name] = tuple(products)

    is_endpoint = _endpoint_terms().search
    return SignedPathwayGraph(
        pathway_id=(attributes.get("name") or "").replace("path:", ""),
        title=attributes.get("title") or "",
        nodes=nodes,
        edges=map(SignedEdge._make, signed),
        endpoints=[key for key, node in nodes.items()
                   if is_endpoint(f"{node.graphics_label} {key}".casefold())],
        skipped_relations=skipped,
    ), ReactionGraph(
        compounds=compounds,
        edges=reaction_edges,
        enzymes={symbol: tuple(sorted(reactions))
                 for symbol, reactions in sorted(enzyme_reactions.items())},
        reaction_substrates=reaction_substrates,
        reaction_products=reaction_products,
    )


def _strip_cpd(name: str | None) -> str:
    if not name:
        return ""
    return name.removeprefix("cpd:").strip()
