"""Canonical JSON interchange for every object kind.

Rationals serialize as strings "p/q" (or "p" when the denominator is one);
integers are unbounded; keys are emitted in sorted order so that identical
objects produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict

from .deltaforms import DeltaForm, PSFunction
from .errors import TropcalcError
from .linalg import rat, rat_str
from .morphisms import AffineMap
from .polyhedra import Polyhedron
from .superforms import Poly, Superform

FORMAT_VERSION = "1"


class ParseError(TropcalcError):
    """A document or object is malformed."""


def _parse_rat(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def _parse_int(value) -> int:
    f = _parse_rat(value)
    if f.denominator != 1:
        raise ParseError(f"expected an integer, got {value!r}")
    return f.numerator


def _constraints_to_json(rows):
    return [[int(x) for x in normal] + [rat_str(rat(c))]
            for normal, c in rows]


def _constraints_from_json(rows, rank):
    out = []
    for row in rows:
        if len(row) != rank + 1:
            raise ParseError(f"constraint row of length {len(row)}, "
                             f"expected {rank + 1}")
        out.append((tuple(_parse_int(x) for x in row[:rank]),
                    _parse_rat(row[rank])))
    return out


def polyhedron_to_json(p: Polyhedron) -> dict:
    return {"rank": p.ambient_rank,
            "ineqs": _constraints_to_json(p.ineqs),
            "eqs": _constraints_to_json(p.eqs)}


def polyhedron_from_json(doc: dict) -> Polyhedron:
    rank = _parse_int(doc["rank"])
    p = Polyhedron.try_new(rank,
                           _constraints_from_json(doc.get("ineqs", []), rank),
                           _constraints_from_json(doc.get("eqs", []), rank))
    if p is None:
        raise ParseError("polyhedron is empty")
    return p


def _poly_to_json(poly: Poly) -> list:
    return [{"exp": list(e), "coef": rat_str(c)}
            for e, c in sorted(poly.terms.items())]


def _poly_from_json(terms, rank) -> Poly:
    out = {}
    for term in terms:
        e = tuple(_parse_int(x) for x in term["exp"])
        if len(e) != rank:
            raise ParseError("exponent length disagrees with the rank")
        out[e] = out.get(e, Fraction(0)) + _parse_rat(term["coef"])
    return Poly(rank, out)


def superform_to_json(a: Superform) -> dict:
    terms = [{"I": list(i_idx), "J": list(j_idx), "poly": _poly_to_json(poly)}
             for (i_idx, j_idx), poly in sorted(a.terms.items())]
    return {"rank": a.rank, "p": a.p, "q": a.q, "terms": terms}


def superform_from_json(doc: dict) -> Superform:
    rank = _parse_int(doc["rank"])
    p, q = _parse_int(doc["p"]), _parse_int(doc["q"])
    terms = {}
    for term in doc.get("terms", []):
        key = (tuple(_parse_int(i) for i in term["I"]),
               tuple(_parse_int(j) for j in term["J"]))
        poly = _poly_from_json(term["poly"], rank)
        terms[key] = terms.get(key, Poly(rank)) + poly
    return Superform(rank, p, q, terms)


def _is_weight(a: DeltaForm, coeff: Superform):
    if (a.p, a.q) != (0, 0):
        return None
    poly = coeff.terms.get(((), ()))
    if poly is None:
        return Fraction(0)
    if set(poly.terms) <= {tuple(0 for _ in range(a.rank))}:
        return poly.evaluate(tuple(Fraction(0) for _ in range(a.rank)))
    return None


def deltaform_to_json(a: DeltaForm) -> dict:
    cells = []
    for cell, coeff in a.cells:
        entry = {"poly": polyhedron_to_json(cell)}
        w = _is_weight(a, coeff)
        if w is not None:
            entry["weight"] = rat_str(w)
        else:
            entry["coeff"] = superform_to_json(coeff)
        cells.append(entry)
    return {"rank": a.rank, "type": [a.p, a.q, a.l], "cells": cells}


def deltaform_from_json(doc: dict) -> DeltaForm:
    rank = _parse_int(doc["rank"])
    ptype = tuple(_parse_int(x) for x in doc["type"])
    if len(ptype) != 3:
        raise ParseError("type must be [p, q, l]")
    cells = []
    for entry in doc.get("cells", []):
        cell = polyhedron_from_json(entry["poly"])
        if "weight" in entry:
            coeff = Superform.constant(rank, _parse_rat(entry["weight"]))
        elif "coeff" in entry:
            coeff = superform_from_json(entry["coeff"])
        else:
            raise ParseError("cell entry needs a weight or a coefficient")
        cells.append((cell, coeff))
    return DeltaForm(rank, ptype, cells)


def psfunction_to_json(phi: PSFunction) -> dict:
    if phi.kind is not None and phi.terms is not None:
        return {"rank": phi.rank, "kind": phi.kind,
                "terms": [[int(x) for x in row[:-1]] + [rat_str(row[-1])]
                          for row in phi.terms]}
    cells = phi.top_cells()
    return {"rank": phi.rank,
            "complex": [polyhedron_to_json(c) for c in cells],
            "pieces": [_poly_to_json(phi.pieces[c.key()]) for c in cells]}


def psfunction_from_json(doc: dict) -> PSFunction:
    rank = _parse_int(doc["rank"])
    if "kind" in doc:
        if doc["kind"] not in ("max", "min"):
            raise ParseError(f"unknown kind {doc['kind']!r}")
        rows = []
        for row in doc["terms"]:
            if len(row) != rank + 1:
                raise ParseError("term row length disagrees with the rank")
            rows.append(tuple(_parse_int(x) for x in row[:rank])
                        + (_parse_rat(row[rank]),))
        return PSFunction.from_minmax(rank, doc["kind"], rows)
    cells = [polyhedron_from_json(c) for c in doc["complex"]]
    polys = [_poly_from_json(t, rank) for t in doc["pieces"]]
    if len(cells) != len(polys):
        raise ParseError("complex and pieces have different lengths")
    for c in cells:
        if c.dim != rank:
            raise ParseError(f"piece cell of dimension {c.dim} in R^{rank}; "
                             "the cells must be full-dimensional")
    pieces = {c.key(): p for c, p in zip(cells, polys)}
    return PSFunction(rank, cells, pieces)


def affinemap_to_json(f: AffineMap) -> dict:
    return {"source_rank": f.source_rank, "target_rank": f.target_rank,
            "matrix": [list(row) for row in f.matrix],
            "translate": [rat_str(t) for t in f.translate]}


def affinemap_from_json(doc: dict) -> AffineMap:
    rs = _parse_int(doc["source_rank"])
    rt = _parse_int(doc["target_rank"])
    matrix = [[_parse_int(x) for x in row] for row in doc["matrix"]]
    translate = [_parse_rat(x) for x in doc.get("translate", [0] * rt)]
    try:
        return AffineMap(rs, rt, matrix, translate)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_KINDS = {
    "polyhedron": (Polyhedron, polyhedron_to_json, polyhedron_from_json),
    "superform": (Superform, superform_to_json, superform_from_json),
    "deltaform": (DeltaForm, deltaform_to_json, deltaform_from_json),
    "psfunction": (PSFunction, psfunction_to_json, psfunction_from_json),
    "affinemap": (AffineMap, affinemap_to_json, affinemap_from_json),
}


def object_to_json(obj) -> dict:
    for kind, (cls, to_json, _) in _KINDS.items():
        if isinstance(obj, cls):
            doc = to_json(obj)
            doc["object"] = kind
            return doc
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def object_from_json(doc: dict):
    if not isinstance(doc, dict) or "object" not in doc:
        raise ParseError("object entry needs an 'object' tag")
    kind = doc["object"]
    if kind not in _KINDS:
        raise ParseError(f"unknown object kind {kind!r}")
    try:
        return _KINDS[kind][2](doc)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, TropcalcError) as exc:
        raise ParseError(f"bad {kind} object: {exc}") from exc


def document_to_json(objects: Dict[str, object]) -> dict:
    return {"version": FORMAT_VERSION,
            "objects": {name: object_to_json(obj)
                        for name, obj in objects.items()}}


def document_from_json(doc: dict) -> Dict[str, object]:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    objects = doc.get("objects")
    if not isinstance(objects, dict):
        raise ParseError("document needs an 'objects' map")
    return {name: object_from_json(entry) for name, entry in objects.items()}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def save_document(path: str, objects: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(document_to_json(objects)))


def load_document(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as fh:
        return document_from_json(loads(fh.read()))
