"""``python -m qcnet``: the command line front end."""

from .cli import main

main()
