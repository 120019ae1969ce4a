"""The README as the front end's contract.

Every `permclass ...` line of the README's shell blocks runs through bash,
with `permclass` a shell function for `python -m permclass.cli` on
PYTHONPATH=src.  Each must exit 0 with no traceback on stderr, and a
trailing `# "x"` comment must be all of its stdout, `# ends "x"` its last
line.  The lines are independent, so they run two at a time.
"""
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PRELUDE = 'permclass() { "$PYTHON" -m permclass.cli "$@"; }\n'
EXPECT = re.compile(r'#\s*(ends\s+)?"([^"]*)"\s*$')


def readme_commands() -> list[tuple[int, str]]:
    """(line number, text) of each `permclass` line in a ```sh block."""
    found, in_sh = [], False
    for number, line in enumerate((ROOT / "README.md").read_text().splitlines(), 1):
        if line.startswith("```"):
            in_sh = not in_sh and line.strip() == "```sh"
        elif in_sh and line.startswith("permclass "):
            found.append((number, line))
    return found


COMMANDS = readme_commands()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """line number -> CompletedProcess, for every README command."""
    cwd = tmp_path_factory.mktemp("readme")
    env = {**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(ROOT / "src")}

    def run(line):
        return subprocess.run(
            ["bash", "-c", PRELUDE + line], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(run, [line for _, line in COMMANDS])
        return dict(zip([number for number, _ in COMMANDS], done))


def test_readme_has_the_paper_commands():
    lines = [line for _, line in COMMANDS]
    for needle in ("--avoid 123,3214,2143,15432 --max-n 12", "growth --recurrence 1,2,2,1,1",
                   "antichain --mu 7..17 --with-short-basis", "antichain --mu 7..31 --graph-certify"):
        assert any(needle in line for line in lines), needle


@pytest.mark.parametrize("number, line", COMMANDS, ids=[f"README.md:{n}" for n, _ in COMMANDS])
def test_readme_command(results, number, line):
    proc = results[number]
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    expect = EXPECT.search(line)
    if expect:
        ends, text = expect.groups()
        got = proc.stdout.splitlines()
        assert (got[-1:] if ends else got) == [text]
