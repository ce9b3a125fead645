"""JSON report payloads for the CLI (schema "germforge/1").

Exact coefficients are serialized as "p/q" / "p/q+r/s*i" strings and parse
back bit-exactly; float values are decimal strings for re and im.  Jets are
exponent/coefficient listings with their valid_through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import scalars
from .germ import RationalFn, VectorFieldGerm
from .scalars import EXACT, GaussianRational
from .series import INF, Jet2

SCHEMA = "germforge/1"


def scalar_to_json(value) -> Any:
    if isinstance(value, GaussianRational):
        return scalars.format_exact(value)
    value = complex(value)
    return {"re": repr(value.real), "im": repr(value.imag)}


def scalar_from_json(data) -> Any:
    if isinstance(data, str):
        return scalars.parse_exact(data)
    return complex(float(data["re"]), float(data["im"]))


def _valid_to_json(valid):
    return "inf" if valid == INF else int(valid)


def jet2_to_json(jet: Jet2) -> Dict[str, Any]:
    """The terms sorted by exponent; exact ones formatted from the stored
    numerators (scalars.format_numerators), with no scalar view."""
    if jet.mode == EXACT:
        den, re, im = jet.den, jet.re, jet.im
        terms = [[i, j, scalars.format_numerators(den, re.get((i, j), 0), im.get((i, j), 0))]
                 for i, j in sorted(jet._keys())]
    else:
        terms = [[i, j, scalar_to_json(v)] for (i, j), v in sorted(jet.re.items())]
    return {
        "vars": ["x", "y"],
        "mode": jet.mode,
        "valid_through": _valid_to_json(jet.valid_through),
        "terms": terms,
    }


def jet2_from_json(data: Dict[str, Any]) -> Jet2:
    valid = INF if data["valid_through"] == "inf" else int(data["valid_through"])
    coeffs = {(int(i), int(j)): scalar_from_json(v) for i, j, v in data["terms"]}
    return Jet2(data["mode"], coeffs, valid)


def germ_to_json(x: VectorFieldGerm) -> Dict[str, Any]:
    return {"dx": jet2_to_json(x.a), "dy": jet2_to_json(x.b)}


def rational_to_json(r: RationalFn) -> Dict[str, Any]:
    return {"num": jet2_to_json(r.num), "den": jet2_to_json(r.den)}


@dataclass
class Report:
    command: List[str]
    config: Dict[str, Any]
    status: str = "ok"                    # ok | fail | error
    result: Dict[str, Any] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "status": self.status,
            "result": self.result,
            "diagnostics": self.diagnostics,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported report schema {data.get('schema')!r}")
        return cls(
            command=data["command"],
            config=data["config"],
            status=data["status"],
            result=data["result"],
            diagnostics=data["diagnostics"],
        )
