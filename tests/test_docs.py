"""The README's scenario-format tables against the loader's table."""

import inspect
import re
from pathlib import Path

from visiplan import sim

README = Path(__file__).resolve().parent.parent / "README.md"


def format_keys(rows, prefix=""):
    """The dotted key of every value the loader reads through `rows`, once
    per map or target kind that reads it."""
    for row in rows:
        name = prefix + row.key
        # the kinds that nest keys keep them in their closures
        nested = inspect.getclosurevars(row.kind).nonlocals
        if "rows" in nested:                        # a section
            yield from format_keys(nested["rows"], name + ".")
        elif "kinds" in nested:                     # one of several kinds
            for rows_of_kind in nested["kinds"]:
                yield from format_keys(rows_of_kind, name + ".")
        elif "keys" in nested:                      # a config dataclass
            yield from (f"{name}.{key}" for key in nested["keys"])
        else:
            yield name


def documented_keys(text: str):
    """The backticked names in the `key` column of every table in the
    README's "Scenario format" section."""
    section = text.split("\n## Scenario format\n", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    for at, line in enumerate(lines[:-1]):
        if not (line.startswith("|") and lines[at + 1].startswith("|---")):
            continue
        header = [cell.strip() for cell in line.strip("|").split("|")]
        assert "key" in header, f"a format table has no key column: {line}"
        column = header.index("key")
        for row in lines[at + 2:]:
            if not row.startswith("|"):
                break
            cell = row.strip("|").split("|")[column]
            yield from re.findall(r"`([^`]+)`", cell)


def test_readme_tables_name_every_scenario_key():
    want = sorted(format_keys(sim._SCENARIO))
    assert "map.generator.area" in want and "target.random.start" in want
    assert sorted(documented_keys(README.read_text())) == want
