"""DESIGN.md §2's module map lists exactly the modules under ``src/repro``.

The map is a fenced block: package directories at two spaces of indent,
their modules at four, top-level modules at two, and descriptions (and
their continuation lines, indented deeper) after the name.  Every
``*.py`` file under ``src/repro`` except the package ``__init__.py``
files must appear in it exactly once, and nothing else may.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
HEADING = "## 2. System inventory (module map)"


def design_map() -> list[str]:
    """The module paths the map lists, relative to ``src/repro``."""
    section = (ROOT / "DESIGN.md").read_text().split(HEADING, 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines[0] == "src/repro/", lines[0]
    listed: list[str] = []
    package = ""
    for line in lines[1:]:
        indent = len(line) - len(line.lstrip(" "))
        name = line.split()[0]
        if indent == 2 and name.endswith("/"):
            package = name
        elif indent == 2 and name.endswith(".py"):
            listed.append(name)
        elif indent == 4 and name.endswith(".py"):
            assert package, f"module {name} outside any package"
            listed.append(package + name)
        else:
            assert indent > 4, f"unparsed map line: {line!r}"
    return listed


def source_tree() -> list[str]:
    return sorted(path.relative_to(SRC).as_posix()
                  for path in SRC.rglob("*.py")
                  if path.name != "__init__.py")


def test_no_module_listed_twice():
    listed = design_map()
    twice = sorted({name for name in listed if listed.count(name) > 1})
    assert not twice, f"listed more than once: {twice}"


def test_map_matches_the_source_tree():
    listed = set(design_map())
    tree = set(source_tree())
    assert not tree - listed, f"missing from the map: {sorted(tree - listed)}"
    assert not listed - tree, f"not in the tree: {sorted(listed - tree)}"
