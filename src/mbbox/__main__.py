"""``python -m mbbox``: the command-line interface, as the ``mbbox`` script runs it."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
