"""``python -m grovekit``: the command line, exiting with its code."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
