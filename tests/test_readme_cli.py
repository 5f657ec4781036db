"""README's CLI block shows exactly the `formula` families and `gen` kinds
that the CLI's tables declare, so an entry that is added, renamed or
retired cannot leave the usage lines behind."""

import re
from pathlib import Path

from shellings.cli import FORMULAS, GENS

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block() -> str:
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_block_names_every_family_and_kind():
    block = _cli_block()
    for command, table in (("formula", FORMULAS), ("gen", GENS)):
        shown = re.findall(rf"^shellings {command} ([\w-]+)", block, flags=re.MULTILINE)
        assert set(shown) == set(table), command
