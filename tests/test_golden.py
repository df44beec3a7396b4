"""Golden CLI outputs: the problem documents of ``perfbench/problems`` at
seeds 0-2 must print byte for byte what ``tests/golden/`` holds.  See
``regenerate_golden.py`` for a deliberate change."""

import pytest

from regenerate_golden import GOLDEN, cases, cli_output

CASES = cases()


def test_every_golden_file_has_a_case():
    assert len(CASES) == 30
    assert sorted(p.name for p in GOLDEN.iterdir()
                  if p.suffix in (".json", ".txt")) == sorted(
        name for name, _argv in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _a in CASES])
def test_cli_output_matches_golden(name, argv):
    assert cli_output(argv).encode() == (GOLDEN / name).read_bytes()
