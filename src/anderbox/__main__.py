"""``python -m anderbox <subcommand> ...``: the CLI, runnable from a source
checkout with ``PYTHONPATH=src``."""

import sys

from .cli import main

sys.exit(main())
