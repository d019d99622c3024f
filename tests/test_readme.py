"""The README's library example runs as printed: each `expr  # value` line's
value is repr(expr)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, sep, value = line.partition("  #")
        if not sep:
            exec(line, namespace)
            continue
        assert repr(eval(code, namespace)) == value.strip(), line
        checked += 1
    assert checked >= 9
