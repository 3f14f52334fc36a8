"""The README's library quick start, CLI subcommands and key table match the current code."""

import re
from pathlib import Path

from utilsched.cli import FAIRNESS_KEYS, KEY_TYPES, SWEEP_KEYS, build_parser

README = Path(__file__).parent.parent / "README.md"


def section(title):
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def quick_start_code():
    blocks = re.findall(r"^```python\n(.*?)^```", section("Library quick start"), flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block under 'Library quick start'"
    return blocks[0]


def test_library_quick_start_runs():
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["shares"].shape == (100, 3)


def test_key_table_lists_exactly_the_cli_keys_and_defaults():
    sweep, fairness = {}, {}
    for line in README.read_text().splitlines():
        match = re.fullmatch(r"\| `(\w+)` \|.*\| (.*) \| (.*) \|", line)
        if match:
            key, sweep_default, fairness_default = match.groups()
            if sweep_default:
                sweep[key] = KEY_TYPES[key](sweep_default)
            if fairness_default:
                fairness[key] = KEY_TYPES[key](fairness_default)
    # the subcommand sets policy; it has no flag
    assert sweep == {k: v for k, v in SWEEP_KEYS.items() if k != "policy"}
    assert fairness == FAIRNESS_KEYS


def test_command_line_block_lists_exactly_the_subcommands():
    block = re.search(r"^```\n(.*?)^```", section("Command line"), flags=re.S | re.M).group(1)
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("utilsched ")]
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert sorted(listed) == sorted(subparsers.choices)
