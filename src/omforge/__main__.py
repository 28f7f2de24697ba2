"""`python -m omforge ...` runs the command-line front end (`omforge.cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
