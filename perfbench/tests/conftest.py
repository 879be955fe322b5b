"""Make the benchmark's modules and the checkout's program importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402

common.require_program()
