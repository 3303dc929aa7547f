"""``python -m critlab``: the same command line as the ``critlab`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
