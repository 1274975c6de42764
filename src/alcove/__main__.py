"""Entry point for ``python -m alcove``; the same as the ``alcove`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
