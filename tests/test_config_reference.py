"""The README's config key reference is the schema's table.

`python tests/test_config_reference.py` prints the reference's rows from
pipeline.CONFIG_SCHEMA, to paste under the README's header row.
"""

from pathlib import Path

from windest.pipeline import CONFIG_SCHEMA

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| key | unit | domain | meaning |"


def reference_rows():
    return [f"| `{row.key}` | {row.unit} | {row.domain} | {row.meaning} |" for row in CONFIG_SCHEMA]


def table_cells(lines):
    """(key, unit, domain, meaning) of each markdown row."""
    return [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")) for line in lines]


def test_readme_lists_every_config_key_with_its_unit_and_domain():
    lines = README.read_text().splitlines()
    start = lines.index(HEADER) + 2  # after the header and its rule
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    expected = [(row.key, row.unit, row.domain, row.meaning) for row in CONFIG_SCHEMA]
    assert table_cells(lines[start:end]) == expected
    assert table_cells(reference_rows()) == expected


if __name__ == "__main__":
    print("\n".join(reference_rows()))
