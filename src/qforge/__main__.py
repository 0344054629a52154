"""`python3 -m qforge ...`: the qforge command."""

import sys

from .cli import main

sys.exit(main())
