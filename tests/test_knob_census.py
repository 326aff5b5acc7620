"""The knob census (``tools/knob_census.py``) and its ratchet file.

Every knob no code outside ``tests/`` sets is listed, with the reason it
stays, in ``tests/data/knob_census.txt``; the census of the tree must match
that list exactly.  The tool itself is checked on a miniature repository
under ``tests/data/knob_fixture``.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "knob_fixture"


def _load_tool():
    spec = importlib.util.spec_from_file_location("knob_census", ROOT / "tools" / "knob_census.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


knob_census = _load_tool()


def test_every_knob_without_a_caller_is_listed_with_a_reason():
    census = knob_census.census(ROOT)
    text = (ROOT / "tests" / "data" / "knob_census.txt").read_text()
    assert knob_census.ratchet_problems(census, text) == []


@pytest.fixture(scope="module")
def fixture_census():
    return knob_census.census(FIXTURE)


@pytest.mark.parametrize("knob,group", [
    ("pkg.mod.build(width=)", "set outside tests"),  # keyword, through `import ... as`
    ("pkg.mod.positional_target(a=)", "set outside tests"),  # by position
    ("pkg.mod.positional_target(b=)", "set outside tests"),
    ("pkg.mod.positional_target(c=)", "set by nobody"),  # past the last positional
    ("pkg.mod.aliased(flag=)", "set outside tests"),  # `from ... import f as g`
    ("pkg.mod.lazy_target(level=)", "set outside tests"),  # a package's lazy export
    ("pkg.mod.WidgetConfig.size", "set outside tests"),  # config dataclass field
    ("pkg.mod.WidgetConfig.depth", "set by nobody"),
    ("pkg.mod.build(height=)", "set only by tests"),  # positional, in a test
    ("pkg.mod.spread_target(alpha=)", "set only by tests"),  # **kwargs reaches all
    ("pkg.mod.spread_target(beta=)", "set only by tests"),
    ("env PKG_HOME (pkg.mod)", "set only by tests"),  # monkeypatch.setenv
])
def test_the_census_sorts_each_kind_of_caller(fixture_census, knob, group):
    assert knob in fixture_census.groups[group]


def test_the_census_skips_private_callables_state_and_records(fixture_census):
    knobs = {k for group in fixture_census.groups.values() for k in group}
    assert not any("_private" in k or "cache" in k or "WidgetReport" in k for k in knobs)


def test_the_fixture_ratchet_file_matches(fixture_census):
    text = (FIXTURE / "knob_census.txt").read_text()
    assert knob_census.ratchet_problems(fixture_census, text) == []


def test_an_unset_knob_fails_the_ratchet(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURE, tree)
    mod = tree / "src" / "pkg" / "mod.py"
    mod.write_text(mod.read_text() + "\n\ndef fresh(seed, retries=3):\n    return seed\n")
    problems = knob_census.ratchet_problems(
        knob_census.census(tree), (tree / "knob_census.txt").read_text())
    assert problems == [
        "pkg.mod.fresh(retries=) is set by nobody and not in the ratchet file: "
        "give it a caller outside tests/, or list it with a reason"
    ]


def test_a_stale_or_unreasoned_line_fails_the_ratchet(fixture_census):
    text = (FIXTURE / "knob_census.txt").read_text()
    text = text.replace("pkg.mod.build(color=) -- kept for the fixture", "pkg.mod.build(color=)")
    text += "pkg.mod.build(width=) -- set by tools/use.py\n"
    assert knob_census.ratchet_problems(fixture_census, text) == [
        "pkg.mod.build(color=) is listed without a reason",
        "pkg.mod.build(width=) is listed but is gone or set outside tests/: drop its line",
    ]
