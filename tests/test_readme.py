"""The README's library example runs against the current API, and each
line marked ``# -> value`` evaluates to that value."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    lines, checked = [], 0
    for line in blocks[0].splitlines():
        code, marker, expected = line.partition("# ->")
        if marker:
            code = code.strip()
            lines.append(f"assert ({code}) == ({expected.strip()}), {code!r}")
            checked += 1
        else:
            lines.append(line)
    assert checked >= 2
    exec(compile("\n".join(lines), README, "exec"), {})
