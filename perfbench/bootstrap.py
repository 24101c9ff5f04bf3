"""Point the benchmark at the bohrcert sources of the checkout it lives in.

The benchmark always measures the code next to it, never an installed
copy: ``src/`` of the checkout goes first on ``sys.path``, and a checkout
without it is an error (exit code 1, nothing printed on stdout).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Import bohrcert from ``<checkout>/src`` or exit with an error."""
    if not (SRC / "bohrcert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bohrcert sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import bohrcert

    if Path(bohrcert.__file__).resolve().parent != SRC / "bohrcert":
        sys.exit(f"perfbench: bohrcert was imported from {bohrcert.__file__}, not {SRC}")
