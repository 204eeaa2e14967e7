"""``python -m bmext``: the command line, as the ``bmext`` script runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
