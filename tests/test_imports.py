"""What a fresh interpreter loads: `count` and `generate` need only
`cli`, `words` and `patterns`, and the package resolves every name it
exports on first use."""

import os
import subprocess
import sys

import modasc
from modasc import checks, cli

SUBMODULES = ("checks", "cli", "counting", "maps", "paths", "patterns", "series", "words")


def _fresh(script: str) -> str:
    """Run `script` in a new interpreter that imports this `modasc`."""
    src = os.path.dirname(os.path.dirname(modasc.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_count_and_generate_load_only_cli_words_and_patterns():
    out = _fresh(
        "import sys\n"
        "import modasc.cli\n"
        "modasc.cli.build_parser()\n"
        "modasc.cli.main(['count', '--n', '10', '--avoid', '2321'])\n"
        "modasc.cli.main(['generate', '--n', '3'])\n"
        "unwanted = ('modasc.checks', 'modasc.counting', 'modasc.maps', 'modasc.paths',\n"
        "            'modasc.series', 'dataclasses', 'fractions', 'json')\n"
        "print(*[m for m in unwanted if m in sys.modules])\n"
    )
    assert out.splitlines()[0] == "115975"
    assert out.splitlines()[-1] == ""


def test_every_exported_name_resolves_after_a_bare_import():
    out = _fresh(
        "import modasc\n"
        f"submodules = {SUBMODULES!r}\n"
        "assert all(getattr(modasc, m).__name__ == 'modasc.' + m for m in submodules)\n"
        "assert all(getattr(modasc, name) is not None for name in modasc.__all__)\n"
        "star = {}\n"
        "exec('from modasc import *', star)\n"
        "assert sorted(set(star) - {'__builtins__'}) == modasc.__all__\n"
        "assert all(star[name] is getattr(modasc, name) for name in modasc.__all__)\n"
        "print(len(modasc.__all__))\n"
    )
    assert out == "40\n"


def test_suite_names_match_the_suites():
    assert cli.SUITE_NAMES == tuple(sorted(checks.SUITES))
