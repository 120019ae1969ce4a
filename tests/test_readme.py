"""The README as the front end's contract.

Every `permclass ...` line of the README's shell blocks runs through bash,
with `permclass` a shell function for `python -m permclass.cli` on
PYTHONPATH=src.  Each must exit 0 with no traceback on stderr, and a
trailing `# "x"` comment must be all of its stdout, `# ends "x"` its last
line.  The lines are independent, so they run two at a time.  Each test
is keyed by its command text (`command_id`), so its id survives edits
elsewhere in the README.
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


def readme_commands() -> list[str]:
    """The text of each `permclass` line in a ```sh block, once each."""
    found, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = not in_sh and line.strip() == "```sh"
        elif in_sh and line.startswith("permclass ") and line not in found:
            found.append(line)
    return found


def command_id(line: str) -> str:
    """The test id of a README command: its text after `permclass` and
    before any comment, with each run of other characters than word
    characters and `.,;+-` written as one `_`."""
    return re.sub(r"[^\w.,;+-]+", "_", line.split("#")[0][len("permclass "):]).strip("_")


COMMANDS = readme_commands()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """command text -> CompletedProcess, for every README command."""
    cwd = tmp_path_factory.mktemp("readme")
    env = {**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(ROOT / "src")}

    def run(line):
        return subprocess.run(
            ["bash", "-c", PRELUDE + line], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(COMMANDS, pool.map(run, COMMANDS)))


def test_readme_has_the_paper_commands():
    for needle in ("--avoid 123,3214,2143,15432 --max-n 12", "growth --recurrence 1,2,2,1,1",
                   "antichain --mu 7..17 --with-short-basis", "antichain --mu 7..31 --graph-certify"):
        assert any(needle in line for line in COMMANDS), needle


@pytest.mark.parametrize("line", COMMANDS, ids=[command_id(c) for c in COMMANDS])
def test_readme_command(results, line):
    proc = results[line]
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    expect = EXPECT.search(line)
    if expect:
        ends, text = expect.groups()
        got = proc.stdout.splitlines()
        assert (got[-1:] if ends else got) == [text]
