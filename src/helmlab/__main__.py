"""`python -m helmlab`: the command-line interface."""

from .cli import main

main()
