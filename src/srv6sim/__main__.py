"""``python -m srv6sim``: the srv6sim command line, runnable from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
