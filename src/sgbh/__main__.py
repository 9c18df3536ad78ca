"""``python -m sgbh``: the same entry point as the ``sgbh`` console script."""

import sys

from .cli import main

sys.exit(main())
