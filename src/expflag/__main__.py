"""``python -m expflag``: the ``expflag`` command, run from a checkout."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="expflag")
