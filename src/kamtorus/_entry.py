"""Console entry point.

Importing the package applies the KAMTORUS_THREADS cap to the numerical
backends before numpy is imported (see ``kamtorus/__init__.py``), then
``main`` dispatches to the CLI.  Reductions inside the library use a fixed
sequential order, so the cap affects throughput only, not results.
"""

import sys


def main() -> int:
    from .cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
