"""The command line as an importable module, with every layer loaded.

The commands live in `quadrings.__main__`, which `python -m quadrings` and
the `quadrings` script run and which imports each layer only when a command
calls it.  Importing this module instead loads every layer module up front,
in the package's order, and binds the package namespace, so code that
wraps or patches the layers (perfbench's tracer, the tests) finds them all
in sys.modules before the first command runs.  It re-exports main,
UsageError and COMMANDS, the table of commands: each takes the parsed
arguments and returns (payload, rows, ok), which main renders as JSON, CSV
or text.  `python -m quadrings.cli` runs the same commands.
"""

from __future__ import annotations

from . import _load

_load()

from .__main__ import COMMANDS, UsageError, main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
