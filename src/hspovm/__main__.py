"""``python -m hspovm``: the ``hspovm`` command line (see :mod:`hspovm.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
