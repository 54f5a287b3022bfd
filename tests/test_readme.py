"""The README's library example runs against the current API, each line
marked ``# -> value`` evaluates to that value, its command block names
only subcommands and options the parser has, and the shift-kernel window
reaches it quotes are the code's."""

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


def test_readme_command_block_matches_the_parser():
    import argparse

    from endex.cli import build_parser

    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("endex ")]
    assert sorted(c[0] for c in commands) == sorted(subparsers.choices)
    for command, *rest in commands:
        options = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
        flags = set(re.findall(r"--[a-z][a-z0-9-]*", " ".join(rest)))
        assert flags <= options, (command, flags - options)


def test_readme_window_reaches_match_the_code():
    import math

    from endex import twisted

    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    reaches = re.search(r"`twisted\._DECAY_REACH`: ([0-9., and]+) for m = 1…(\d+),", text)
    listed = [float(v) for v in re.split(r", | and ", reaches.group(1))]
    assert int(reaches.group(2)) == twisted.MAX_MULT
    assert listed == [round(reach, 1) for reach in twisted._DECAY_REACH]
    floor = re.search(r"ln\(1/`KERNEL_RTOL`\) = ([0-9.]+)", text)
    assert float(floor.group(1)) == round(math.log(1 / twisted.KERNEL_RTOL), 1)
