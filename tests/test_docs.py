"""README's examples run as written, so they cannot drift from the p/q
text rule: the `### Run configs` JSON block loads through
`config_from_dict`, and the `solovay check` line of the `## Command line`
block exits 0 through `celab.cli.main`."""

import json
import re
import shlex
from pathlib import Path

from celab.cli import EXIT_OK, main
from celab.config import config_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    tail = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_run_config_block_loads():
    rc = config_from_dict(json.loads(block("### Run configs", "json")))
    assert (rc.engine, rc.stages, len(rc.suite_specs)) == ("lemma2", 2000, 3)


def test_solovay_check_line_runs(capsys):
    lines = block("## Command line", "sh").replace("\\\n", " ").splitlines()
    [line] = [line for line in lines if line.startswith("celab solovay check --clause c --q 3/4")]
    assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK
    assert capsys.readouterr().out == "clause c holds on prefix T=64 at q=3/4\n"
