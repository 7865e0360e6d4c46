"""The README's library sketch runs, and the API it names exists."""

import re
from pathlib import Path

import compoz as cz

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def test_library_sketch_runs():
    sketch = _section("Library sketch")
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["product"] == scope["report"].product
    assert scope["verdict"].holds


def test_named_tuple_types_exist():
    sketch = _section("Library sketch")
    listed = re.search(r"The result and parameter types \(([^)]*)\)", sketch).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    for name in names:
        tp = getattr(cz, name)
        assert issubclass(tp, tuple) and hasattr(tp, "_fields"), name
