"""``python -m csd4``: the ``csd4`` command line."""
import sys

from .cli import main

sys.exit(main())
