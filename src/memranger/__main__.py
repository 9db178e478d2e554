"""``python -m memranger``: the same CLI as the ``memranger`` console script."""

import sys

from .report_cli import main

if __name__ == "__main__":
    sys.exit(main())
