"""The README's contract: each test reads its blocks from README.md under their heading."""

import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gtdkit import cli
from gtdkit.geometry import MetricKind

README = (Path(__file__).parents[1] / "README.md").read_text()
# a fenced block, whose lines are not headings, or the hashes of a heading
_TOKENS = re.compile(r"^```(\w*)\n(.*?)^```$|^(#+) ", re.M | re.S)
_PATH = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]  # the package under test
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATH))}


def blocks(heading: str, lang: str) -> list[str]:
    """The `lang` blocks of the README section under `heading`, up to the next heading as high."""
    tokens = _TOKENS.finditer(README, README.index(f"\n{heading}\n") + 1 + len(heading))
    section = itertools.takewhile(lambda m: not m[3] or len(m[3]) > heading.index(" "), tokens)
    return [m[2] for m in section if m[1] == lang]


def python(*args: str, cwd: Path, stdin: str = "") -> subprocess.CompletedProcess:
    """`python ARGS` in `cwd` on the package under test, reading `stdin`."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_ENV, input=stdin,
                          capture_output=True, text=True)


def test_every_command_line_exits_0(tmp_path):
    # a continued line is one command; the 9 include one run of each check identity
    commands = blocks("## Command line", "sh")[0].replace("\\\n", " ").splitlines()
    assert len(commands) >= 9
    for command in commands:
        run = python("-m", "gtdkit", *shlex.split(command)[1:], cwd=tmp_path)
        assert run.returncode == 0, f"{command}\n{run.stderr}"


# a --fit-direction naming no coordinate, one without --fit-center, a count above the 10^6 cap
# (10^12 points would exit 1), and a check flag its identity does not read (it passed unread)
@pytest.mark.parametrize("args", [
    *("scan --system reissner_nordstrom --quantity detg " + args for args in [
        "--range S=2:5:4 --pin Q=1 --fit-center S=3.14159,Q=1 --fit-direction S=1,q=0.5",
        "--range S=2:5:4 --pin Q=1 --fit-direction S=1 --fit-offsets 0.1:8",
        "--range S=2:5:1000000000000 --pin Q=1",
        "--range S=2:5:4 --pin Q=1 --fit-center S=3.14159,Q=1 --fit-direction S=1 --fit-offsets 0.1:1000000000000",
    ]),
    *("check " + args for args in [
        "legendre --system vdw --trials 3",
        "contact --n 2 --box S=1:2 --trials 2",
        "first-law --system vdw --beta 1 --trials 3",
    ]),
])
def test_bad_command_line_exits_2(tmp_path, args):
    run = python("-m", "gtdkit", *shlex.split(args), cwd=tmp_path)
    assert run.returncode == 2, run.stderr


def test_systems_listing_is_the_readme_block(capsys):
    expected = blocks("### Built-in systems", "text")[0]
    assert expected and cli.main(["systems"]) == 0
    assert capsys.readouterr().out == expected


def test_definition_files_load_evaluate_and_check(tmp_path, capsys):
    # a block's weights and beta must pass euler and gibbs-duhem: they are its potential's own
    files, checked = blocks("## File formats", "ini"), 0
    assert len(files) >= 2
    for n, text in enumerate(files):
        path = tmp_path / f"block{n}.ini"
        path.write_text(text)
        field = cli.resolve_field(str(path), {}, MetricKind.NATURAL)
        point = ",".join(f"{name}=1.5" for name in field.coordinates)
        assert cli.main(["eval", "--system", str(path), "--point", point]) == 0, text
        spec = getattr(field, "spec", None)
        if spec is not None and None not in (spec.weights, spec.beta):
            box = ",".join(f"{name}=1:2" for name in field.coordinates)
            for identity in ("euler", "gibbs-duhem"):
                assert cli.main(["check", identity, "--system", str(path), "--box", box]) == 0, text
            checked += 1
    assert checked


def test_library_quick_start_runs_without_a_warning(tmp_path):
    block = blocks("## Library quick start", "python")[0]
    assert "import gtdkit" in block
    run = python("-W", "error", "-", cwd=tmp_path, stdin=block)
    assert run.returncode == 0, run.stderr
