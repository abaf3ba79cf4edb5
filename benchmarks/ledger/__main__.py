"""``python -m benchmarks.ledger``: see :mod:`benchmarks.ledger.cli`."""

from benchmarks.ledger.cli import main

raise SystemExit(main())
