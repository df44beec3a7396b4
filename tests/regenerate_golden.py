"""Golden CLI outputs: every problem document of ``perfbench/problems`` at
seeds 0-2, in ``--format json`` and ``--format human --verbose``, stored in
``tests/golden/`` and compared byte for byte by ``test_golden.py``.

Regenerate them only for a deliberate output change, and record it:

    PYTHONPATH=src python3 tests/regenerate_golden.py [OUTDIR]

OUTDIR defaults to ``tests/golden``.
"""

import contextlib
import io
import sys
from pathlib import Path

from toricsegre import cli

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "perfbench" / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (0, 1, 2)
FORMATS = {"json": ("--format", "json"),
           "txt": ("--format", "human", "--verbose")}


def cases():
    """(file name, CLI arguments) of every golden output."""
    out = []
    for doc in sorted(PROBLEMS.glob("*.json")):
        for seed in SEEDS:
            for ext, flags in FORMATS.items():
                out.append(("%s.seed%d.%s" % (doc.stem, seed, ext),
                            ["--input", str(doc), "--seed", str(seed)]
                            + list(flags)))
    return out


def cli_output(argv):
    """Standard output of the CLI run on ``argv``; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("toricsegre %s exited %d" % (" ".join(argv), code))
    return buf.getvalue()


def main(outdir=GOLDEN):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, argv in cases():
        (outdir / name).write_bytes(cli_output(argv).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
