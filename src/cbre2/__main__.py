"""`python -m cbre2 <subcommand> ...`: the same entry point as the `cbre2` script."""

import sys

from .cli import main

sys.exit(main())
