"""``python -m fksim <subcommand> --config PATH ...`` runs the command-line
driver, ``fksim.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
