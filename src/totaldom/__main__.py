"""``python -m totaldom``: the same command line as the ``totaldom`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
