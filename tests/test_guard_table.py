"""README's "Guards" table names exactly the package's size guards: the
module-level ``MAX_*`` and ``DEFAULT_MAX_*`` constants, so a guard that is
renamed or retired cannot leave a stale row."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GUARD = re.compile(r"(DEFAULT_)?MAX_[A-Z0-9_]+")


def _guard_constants() -> set[str]:
    found = set()
    for path in sorted((ROOT / "src" / "shellings").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for target in targets:
                if isinstance(target, ast.Name) and GUARD.fullmatch(target.id):
                    found.add(f"{path.stem}.{target.id}")
    return found


def _guard_table_rows() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("### Guards", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+\.\w+)` \|", section, flags=re.MULTILINE)


def test_guard_table_names_every_guard_constant():
    rows = _guard_table_rows()
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == _guard_constants()
