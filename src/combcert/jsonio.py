"""Wire formats: instance+point, comb, and certificate JSON documents.

Instance files bundle the structure and a weighting:

    { "class1": ["a", "b"], "class2": ["c", "d"],
      "weights": { "a-c": "1", "a-d": "1/2" } }

The key "u-v" names an existing edge (either endpoint order is accepted;
labels therefore must not contain "-"); the value is an exact rational
string: "[+-]digits" or "[+-]digits/digits", or a JSON integer (see
`rational.parse_rational`).  An explicit "0" declares an edge that exists
with weight zero.  Round-trips are value-exact: rationals never pass
through floats.

Comb files are { "hand": [...], "teeth": [[...], ...] }.  Certificates
carry their builder tag, the member list, and the target comb.  All
malformed input is reported as `FormatError` naming the offending field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from os import PathLike
from pathlib import Path
from typing import Mapping

from .certificates import BUILDERS, Certificate, CertificateMember
from .combs import Comb
from .errors import FormatError, UnknownVertexError
from .graph import BipartiteInstance, Edge, FractionalPoint, VertexId
from .rational import format_rational, parse_rational


def _as_document(source, what: str) -> dict:
    """`source` as a document: a mapping as it is, a str or path as a file."""
    if isinstance(source, Mapping):
        return dict(source)
    if not isinstance(source, (str, PathLike)):
        raise FormatError(what, "must be a JSON object or a file path")
    path = Path(source)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: NUL in path, not UTF-8
        raise FormatError(what, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise FormatError(what, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(what, "top-level value must be an object")
    return doc


def _string_list(doc: dict, field: str) -> list[str]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FormatError(field, "must be a list of strings")
    return value


def parse_edge_key(instance: BipartiteInstance, key: str, field: str) -> Edge:
    if not isinstance(key, str):
        raise FormatError(field, f"edge key {key!r} must be a string")
    parts = key.split("-")
    if len(parts) != 2:
        raise FormatError(field, f"edge key {key!r} must be 'label-label'")
    try:
        a = instance.vertex(parts[0])
        b = instance.vertex(parts[1])
    except UnknownVertexError as exc:
        raise FormatError(field, str(exc)) from exc
    if a.cls == b.cls:
        raise FormatError(field, f"edge {key!r} joins two same-class vertices")
    return Edge(a, b)


def load_instance(source) -> tuple[BipartiteInstance, FractionalPoint]:
    """Read an instance document; returns the structure and its weighting."""
    doc = _as_document(source, "instance")
    class1 = _string_list(doc, "class1")
    class2 = _string_list(doc, "class2")
    for label in class1 + class2:
        if "-" in label:
            raise FormatError("class1/class2", f"label {label!r} contains '-'")
    weights_doc = doc.get("weights", {})
    if not isinstance(weights_doc, dict):
        raise FormatError("weights", "must be an object")

    labels = class1 + class2
    if len(set(labels)) != len(labels):
        raise FormatError("class1/class2", "labels must be unique")
    skeleton = BipartiteInstance(tuple(class1), tuple(class2), frozenset())

    edges: dict[Edge, int | Fraction] = {}
    for key, raw in weights_doc.items():
        field = f"weights[{key!r}]"
        edge = parse_edge_key(skeleton, key, field)
        if edge in edges:
            raise FormatError(field, "duplicate edge (same pair listed twice)")
        try:
            edges[edge] = parse_rational(raw)
        except ValueError as exc:
            raise FormatError(field, str(exc)) from exc

    instance = BipartiteInstance(tuple(class1), tuple(class2), frozenset(edges))
    point = FractionalPoint(instance, edges)
    return instance, point


def dump_instance(instance: BipartiteInstance, point: FractionalPoint) -> dict:
    """One weights entry per instance edge; edges off the point get "0".
    Kept as public API: README names it as the writer whose weights read back."""
    weights = {
        instance.edge_label(e): format_rational(point.weight(e))
        for e in instance.sorted_edges
    }
    return {
        "class1": list(instance.class1_labels),
        "class2": list(instance.class2_labels),
        "weights": weights,
    }


def _vertex_list(instance, labels, field) -> frozenset[VertexId]:
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError(field, "must be a list of vertex labels")
    out = set()
    for k, label in enumerate(labels):
        try:
            vertex = instance.vertex(label)
        except UnknownVertexError as exc:
            raise FormatError(f"{field}[{k}]", str(exc)) from exc
        if vertex in out:
            raise FormatError(f"{field}[{k}]", f"repeats vertex {label!r}")
        out.add(vertex)
    return frozenset(out)


def load_comb(source, instance: BipartiteInstance) -> Comb:
    doc = _as_document(source, "comb")
    hand = _vertex_list(instance, doc.get("hand"), "hand")
    teeth_doc = doc.get("teeth")
    if not isinstance(teeth_doc, list):
        raise FormatError("teeth", "must be a list of vertex-label lists")
    teeth = tuple(
        _vertex_list(instance, tooth, f"teeth[{i}]")
        for i, tooth in enumerate(teeth_doc)
    )
    return Comb(hand, teeth)


def dump_comb(comb: Comb, instance: BipartiteInstance) -> dict:
    return {
        "hand": list(instance.labels_of(comb.hand)),
        "teeth": [list(instance.labels_of(t)) for t in comb.teeth],
    }


def dump_certificate(cert: Certificate, instance: BipartiteInstance) -> dict:
    members = []
    for m in cert.members:
        if m.kind == "degree":
            members.append(
                {
                    "kind": "degree",
                    "vertex": instance.label(m.vertex),
                    "support": sorted(instance.edge_label(e) for e in m.support),
                }
            )
        else:
            members.append(
                {"kind": "sec", "set": list(instance.labels_of(m.vertex_set))}
            )
    return {
        "builder": cert.builder,
        "orientation": cert.orientation,
        "members": members,
        "target_comb": dump_comb(cert.comb, instance),
    }


def load_certificate(source, instance: BipartiteInstance) -> Certificate:
    """Read a `certify --output` file back; kept as the loader an
    independent checker of those files will use."""
    doc = _as_document(source, "certificate")
    builder = doc.get("builder")
    if not isinstance(builder, str) or builder not in BUILDERS:
        raise FormatError("builder", f"unknown builder {builder!r}")
    orientation = doc.get("orientation", 1)
    if type(orientation) is not int or orientation not in (1, 2):  # not true, not 1.0
        raise FormatError("orientation", "must be 1 or 2")
    comb_doc = doc.get("target_comb", {})
    if not isinstance(comb_doc, dict):
        raise FormatError("target_comb", "must be an object")
    comb = load_comb(comb_doc, instance)
    members_doc = doc.get("members")
    if not isinstance(members_doc, list):
        raise FormatError("members", "must be a list")
    members = []
    for i, m in enumerate(members_doc):
        field = f"members[{i}]"
        if not isinstance(m, dict):
            raise FormatError(field, "must be an object")
        kind = m.get("kind")
        if kind == "degree":
            label = m.get("vertex")
            if not isinstance(label, str):
                raise FormatError(f"{field}.vertex", "must be a vertex label")
            try:
                vertex = instance.vertex(label)
            except UnknownVertexError as exc:
                raise FormatError(f"{field}.vertex", str(exc)) from exc
            support_doc = m.get("support", [])
            if not isinstance(support_doc, list):
                raise FormatError(f"{field}.support", "must be a list of edge keys")
            support = frozenset(
                parse_edge_key(instance, key, f"{field}.support[{k}]")
                for k, key in enumerate(support_doc)
            )
            members.append(
                CertificateMember(kind="degree", vertex=vertex, support=support)
            )
        elif kind == "sec":
            vset = _vertex_list(instance, m.get("set"), f"{field}.set")
            members.append(CertificateMember(kind="sec", vertex_set=vset))
        else:
            raise FormatError(f"{field}.kind", f"unknown member kind {kind!r}")
    return Certificate(builder, comb, tuple(members), orientation)


def write_json(path, document: dict) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
