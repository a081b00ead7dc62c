#!/usr/bin/env python
"""Run the repo's lint passes: a shim for ``repro lint`` (see
repro.analysis.lint / .static for rules).

Usage::

    python scripts/lint.py src/ tests/ scripts/   # classic REP001-005
    python scripts/lint.py --static src/          # whole-program verifier
    python scripts/lint.py --static src/ --format sarif --output out.sarif

Exits 0 when clean (baselined findings excluded), 1 when violations were
found.
"""
import sys
from pathlib import Path

# Make the in-tree package importable without an install.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["lint", *sys.argv[1:]]))
