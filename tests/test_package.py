import re
from pathlib import Path

import hal


def test_public_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # `from hal import *` for every user
    assert len(hal.__all__) == len(set(hal.__all__))
    missing = [name for name in hal.__all__ if not hasattr(hal, name)]
    assert missing == []
    namespace = {}
    exec("from hal import *", namespace)
    assert set(hal.__all__) <= set(namespace)


README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that states a value to full precision, as repr prints it
FULL_PRECISION = re.compile(r"#\s+(\d\.\d{12,})\s*$")


def test_readme_quickstart_values_are_what_the_calls_return():
    # the library quickstart's full-precision comments are the repr of the
    # value on their line, so a reader who copies them gets equal doubles
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = []
    for line in block.splitlines():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        if code.startswith(("from ", "import ")) or "=" in code.split("(", 1)[0]:
            exec(code, namespace)
            continue
        stated = FULL_PRECISION.search(line)
        if stated:
            checked.append((code, stated.group(1), repr(eval(code, namespace))))
    assert [c[0] for c in checked] == ["res.success_probability", "res.fidelity_to_target"]
    for code, stated, actual in checked:
        assert stated == actual, code
