"""``python -m liemap``: the same command line as the ``liemap`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
