"""Set-up of a fresh process: import tripwire, build the CLI parser, fill the lazy caches.

`run.py` starts this file in new interpreters, with the repository's
`src/` as PYTHONPATH, and takes the median of the printed times as
`setup_s`.  It prints the seconds spent in `set_up()`, then the path of
the tripwire package it imported.
"""

import time

START = time.perf_counter()

import io  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def set_up():
    """Import the package, build the CLI parser, and warm every lazy cache once."""
    import tripwire
    import tripwire.cli

    with redirect_stdout(io.StringIO()):
        try:
            tripwire.cli.main(["--help"])
        except SystemExit:
            pass
    # The rotation-sweep oracle builds its angle table on first use.
    tripwire.oracle_curve_value(1.0, 2.0)
    return tripwire


if __name__ == "__main__":
    package = set_up()
    print(time.perf_counter() - START)
    print(package.__file__)
