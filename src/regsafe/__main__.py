"""`python -m regsafe`: the command-line front end."""

from .cli import main

main()
