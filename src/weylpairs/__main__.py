"""``python -m weylpairs``: the same command line as the ``weylpairs`` script."""

from .cli import main

if __name__ == "__main__":
    main()
