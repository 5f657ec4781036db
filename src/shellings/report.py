"""Structured result records serialized as JSON.

All big integers travel as decimal strings (JSON numbers would silently
lose precision); exact rationals as "p/q" strings.  The schema is
versioned and reports round-trip losslessly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GuardExceeded

SCHEMA_VERSION = 1


def format_value(value) -> str:
    """Decimal string for ints, "p/q" for non-integral rationals."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class CrossCheck:
    name: str
    status: str  # pass | fail
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict) -> "CrossCheck":
        return cls(d["name"], d["status"], d.get("detail", ""))


@dataclass
class Report:
    command: str
    input: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    cross_checks: list[CrossCheck] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def add_result(self, method: str, value) -> None:
        """Store ``value`` serialized; a value past the int-to-str digit
        limit is refused with GuardExceeded rather than crashing."""
        try:
            self.results[method] = format_value(value)
        except ValueError as exc:
            raise GuardExceeded(
                f"result {method!r} has more than {sys.get_int_max_str_digits()} decimal "
                "digits, the limit of int-to-str conversion") from exc

    def add_check(self, name: str, ok: bool, detail: str = "") -> None:
        self.cross_checks.append(CrossCheck(name, "pass" if ok else "fail", detail))

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.cross_checks)

    def to_dict(self) -> dict:
        return {
            "schemaVersion": self.schema_version,
            "command": self.command,
            "input": self.input,
            "results": self.results,
            "crossChecks": [c.to_dict() for c in self.cross_checks],
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(
            command=d["command"],
            input=d["input"],
            results=d["results"],
            cross_checks=[CrossCheck.from_dict(c) for c in d["crossChecks"]],
            timing=d["timing"],
            schema_version=d["schemaVersion"],
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))
