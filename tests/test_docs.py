"""README's "Tolerances" table against the constants it documents."""

import importlib
import re
from pathlib import Path

import opentc

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(opentc.__file__).resolve().parent


def tolerance_rows():
    """The `module.NAME` of each row of README's "Tolerances" table."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1]
    rows = []
    for line in section.splitlines():
        if rows and not line.startswith("|"):
            break
        match = re.match(r"\| `(\w+\.\w+)` \|", line)
        if match:
            rows.append(match.group(1))
    return rows


def test_every_tolerance_constant_has_a_readme_row():
    rows = tolerance_rows()
    defined = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in re.findall(r"^([A-Z][A-Z0-9_]*_TOL)\s*=",
                                      path.read_text(), re.MULTILINE)]
    assert len(defined) >= 15
    assert [name for name in defined if name not in rows] == []
    for row in rows:
        module, name = row.split(".")
        assert hasattr(importlib.import_module(f"opentc.{module}"), name), row
