"""The README's library quick start runs as written, and its caps table
states the bounds the code checks."""

import doctest
from pathlib import Path

import seqlab.cli as cli
from seqlab.relations import CLAIM_SUITES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _caps_table() -> list[tuple[str, ...]]:
    """The rows (flag, verb or claim, default, maximum) of the README's caps
    table, backticks dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.replace(" ", "") == "|flag|verborclaim|default|maximum|")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().replace("`", "") for cell in line.strip("|").split("|")))
    return rows


def test_readme_caps_table_matches_the_code():
    claims, verbs = {}, {}
    for flag, where, default, maximum in _caps_table():
        if where.startswith("verify "):
            claims[where.removeprefix("verify ")] = (flag, default, maximum)
        else:
            verbs[flag, where] = (default, maximum)
    assert claims == {
        claim: (row.flag, str(row.default), str(row.maximum)) for claim, row in CLAIM_SUITES.items() if row.flag
    }
    ratio = cli.build_parser().parse_args(["scan", "--seq", "zero", "--nmax", "2"]).grid_ratio
    assert verbs == {
        ("--nmax", "scan"): ("none", str(cli.MAX_BITS)),
        ("--grid-ratio", "scan"): (str(ratio), f"a grid of {cli.MAX_GRID_POINTS} points"),
        ("--n", "generate"): ("none", str(cli.MAX_BITS)),
        ("--nmax", "analyze"): ("none", str(cli.MAX_ANALYZE_BITS)),
        ("--seq period", "periodic"): ("none", str(cli.MAX_PERIOD)),
        ("--seq period", "scan"): ("none", str(cli.MAX_PERIOD)),
    }
    # A new cap in cli.py needs a row above.
    assert {name for name in vars(cli) if name.startswith("MAX_")} == {
        "MAX_BITS",
        "MAX_GRID_POINTS",
        "MAX_ANALYZE_BITS",
        "MAX_PERIOD",
    }
