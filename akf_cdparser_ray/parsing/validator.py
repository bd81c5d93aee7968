"""Profile validation (SURVEY.md §3.2).

Three surfaces, semantics per the reference:

* ``validate_schema`` — full field-for-field JSON-Schema validation of the
  embedded ``SCHEMA`` (a faithful transcription of
  ``/root/reference/schema.yml:1-76``), with ajv-v4 semantics as
  ``lib/validator.js:38-43`` compiles it: ``allErrors``, unanchored
  ``pattern`` search (JS ``RegExp.test``), ajv's fast-mode ``email``/``uri``
  format regexes, ``additionalProperties: false`` enforced at the root and
  inside ``Manager``. NOTE the reference validator is self-declared
  deprecated (``lib/validator.js:5-6``) and its schema describes the legacy
  *flat* profile layout (top-level wkn/city/email, see
  ``test/parser.test.js:13-21``); the current parser emits nested sections,
  so a full parse record is *invalid* under the strict schema — exactly as
  ajv would judge it.
* ``validate`` — the engine's pipeline check: the same constraints with
  ``additionalProperties`` relaxed so the nested section keys of a real
  parse record aren't flagged (documented divergence; everything else is
  field-for-field identical).
* coverage-by-subtraction (ref ``lib/validator.js:46-58``): strike every
  parsed leaf value and the predefined labels from ``_fulltext``; what
  remains is unparsed content. This is the reference's own recall metric and
  becomes a distributed operator in ``stages/parse_stage.py``.
"""

from __future__ import annotations

import copy
import re

from ..functions import text_utils as tu

# faithful transcription of /root/reference/schema.yml:1-76
SCHEMA: dict = {
    "title": "Aktienfuehrer DB import schema",
    "type": "object",
    "required": ["wkn"],
    "additionalProperties": False,
    "definitions": {
        "Manager": {
            "type": "object",
            "additionalProperties": False,
            "required": ["firstName", "lastName"],
            "properties": {
                "firstName": {"type": "string"},
                "lastName": {"type": "string"},
                "title": {"type": "string"},
                "funct": {"type": "string", "pattern": r"^(?:Vors.|stellv. Vors.)$"},
                "responsibilities": {"type": "array", "items": {"type": "string"}},
                "city": {"type": "string"},
            },
        }
    },
    "properties": {
        "_fulltext": {"type": "string"},
        "wkn": {"type": "number"},
        "isin": {"type": "string"},
        "email": {"type": "array", "items": {"type": "string", "format": "email"}},
        "www": {"type": "array", "items": {"type": "string", "format": "uri"}},
        "street": {"type": "string"},
        "street_number": {"type": "string", "pattern": r"^\d.*"},
        "city": {"type": "string"},
        "zip": {"type": "string", "pattern": r"\d{5}"},
        "activity_description": {"type": "string"},
        "established_year": {"type": "number"},
        "status": {"type": "string", "pattern": "Insolvenz"},
        "phone": {"type": "string", "pattern": r"^[0-9\(\)-\s]+$"},
        "fax": {"type": "string", "pattern": r"^[0-9\(\)-\s]+$"},
        "aufsichtsrat": {"type": "array", "items": {"$ref": "#/definitions/Manager"}},
        "vorstand": {"type": "array", "items": {"$ref": "#/definitions/Manager"}},
        "employee_stats": {"type": "array"},
    },
}

# ajv v4 fast-mode format regexes (lib/compile/formats.js of ajv@4)
_FORMATS = {
    "email": re.compile(
        r"^[a-z0-9.!#$%&'*+/=?^_`{|}~-]+@[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?"
        r"(?:\.[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?)*$",
        re.IGNORECASE,
    ),
    "uri": re.compile(r"^(?:[a-z][a-z0-9+\-.]*:)(?:\/?\/)?[^\s]*$", re.IGNORECASE),
}


def _js_regex(pattern: str) -> re.Pattern:
    """Compile a JS-flavored pattern. JS Annex-B treats an invalid class
    range like ``[\\)-\\s]`` as a literal '-'; Python rejects it, so escape
    the hyphen and retry (affects schema.yml's phone/fax charset)."""
    try:
        return re.compile(pattern)
    except re.error:
        return re.compile(re.sub(r"(\\.)-(\\.)", r"\1\\-\2", pattern))


def _type_ok(value, typ: str) -> bool:
    if typ == "object":
        return isinstance(value, dict)
    if typ == "array":
        return isinstance(value, list)
    if typ == "string":
        return isinstance(value, str)
    if typ == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return True


def _resolve(schema: dict, node: dict) -> dict:
    ref = node.get("$ref")
    if not ref:
        return node
    assert ref.startswith("#/"), ref
    out = schema
    for part in ref[2:].split("/"):
        out = out[part]
    return out


def _validate_node(root: dict, node: dict, value, path: str, errors: list[str]) -> None:
    node = _resolve(root, node)
    typ = node.get("type")
    if typ is not None and not _type_ok(value, typ):
        errors.append(f"{path or 'data'} should be {typ}")
        return  # ajv skips keyword checks that assume the type
    if typ == "object":
        for req in node.get("required", []):
            if req not in value:
                errors.append(f"{path or 'data'} should have required property '{req}'")
        props = node.get("properties", {})
        if node.get("additionalProperties") is False:
            for k in value:
                if k not in props:
                    errors.append(f"{path or 'data'} should NOT have additional property '{k}'")
        for k, sub in props.items():
            if k in value:
                _validate_node(root, sub, value[k], f"{path}.{k}" if path else k, errors)
    elif typ == "array":
        items = node.get("items")
        if items:
            for i, item in enumerate(value):
                _validate_node(root, items, item, f"{path}[{i}]", errors)
    elif typ == "string":
        pat = node.get("pattern")
        # ajv: new RegExp(pattern).test(str) — unanchored search semantics
        if pat is not None and not _js_regex(pat).search(value):
            label = "not in enum" if pat.startswith("^(?:") else "pattern mismatch"
            errors.append(f"{path} '{value}' {label} (should match pattern {pat!r})")
        fmt = node.get("format")
        if fmt in _FORMATS and not _FORMATS[fmt].search(value):
            errors.append(f"{path} '{value}' should match format {fmt!r}")


def validate_schema(data: dict, schema: dict = SCHEMA) -> tuple[bool, list[str]]:
    """Full ajv-v4-faithful validation against the embedded schema.yml
    (strict: additionalProperties enforced)."""
    errors: list[str] = []
    _validate_node(schema, schema, data, "", errors)
    return (len(errors) == 0), errors


def _relaxed(schema: dict) -> dict:
    out = copy.deepcopy(schema)
    out.pop("additionalProperties", None)
    out["definitions"]["Manager"].pop("additionalProperties", None)
    return out


_RELAXED_SCHEMA = _relaxed(SCHEMA)


def _flatten_managers(data: dict) -> dict:
    """The parser wraps vorstand lists one level deeper (parser.js:673);
    flatten for the per-manager checks."""
    out = dict(data)
    for field in ("aufsichtsrat", "vorstand"):
        managers = data.get(field)
        if isinstance(managers, list):
            flat = []
            for m in managers:
                flat.extend(m) if isinstance(m, list) else flat.append(m)
            out[field] = flat
    return out


def validate(data: dict) -> tuple[bool, list[str]]:
    """Engine-mode schema check over a real (nested) parse record: every
    schema.yml constraint field-for-field, with additionalProperties
    relaxed so section keys (Sitz, kennzahlen, …) aren't flagged."""
    return validate_schema(_flatten_managers(data), _RELAXED_SCHEMA)


PREDEFINED = [
    "Status",
    "Tätigkeitsgebiet/Gründung",
    "Gründung",
    "e-mail",
    "Telefon",
    "Management",
    "Aufsichtsrat",
    "Stammaktien",
    "Nennwert",
    "Internetseite",
    "Telefax",
    "ISIN",
    "Wertpapier-Kenn.Nr",
]

_PREDEFINED_RES = [(re.compile(r"\s*\b" + re.escape(s) + r"\b\s*"), len(s))
                   for s in map(tu.clean_text, PREDEFINED)]


def unparsed_text(data: dict, replace_values: str = " ", replace_predefined: str = "*") -> str:
    """Subtraction residue (ref validator.js:46-58)."""
    remaining = tu.clean_text(data.get("_fulltext", ""))
    for k, v in data.items():
        if k.startswith("_fulltext"):
            continue
        for leaf in tu.leaf_nodes(v):
            s = tu.clean_text(leaf)
            if not s:
                continue
            remaining = re.sub(
                r"\s*" + re.escape(s) + r"\s*",
                replace_values * len(s),
                remaining,
                count=1,
            )
    for pattern, n in _PREDEFINED_RES:
        remaining = pattern.sub(replace_predefined * n, remaining)
    return remaining


def coverage_ratio(data: dict) -> float:
    """Fraction of the cleaned fulltext consumed by parsed values —
    1.0 means everything was struck out (engine-side summary metric)."""
    full = tu.clean_text(data.get("_fulltext", ""))
    residue = unparsed_text(data)
    alnum = [c for c in residue if c.isalnum()]
    total = [c for c in full if c.isalnum()]
    if not total:
        return 1.0
    return 1.0 - len(alnum) / len(total)
