"""``python -m moca_verify`` runs the command-line front end."""

from .cli import main

if __name__ == "__main__":
    main()
