"""`python -m hyperzero`: the same command line as the `hyperzero` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
