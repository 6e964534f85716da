"""`python -m a1unicity ...` runs the `a1u` command line."""

from .cli import main

main()
