"""The ``netpoverty`` command's entry: ``python -m netpoverty`` and the console script.

:func:`main` imports :mod:`netpoverty.cli`, then calls ``gc.freeze()``
and exits with ``cli.main()``'s code.  Freezing moves every object the
imports made out of the collector's reach.  The axiom suite's workers
fork without exec, and a collection in one of them no longer writes to
those objects' pages; the collections at interpreter exit
skip the whole import graph.  ``cli.main`` itself never freezes, since tests and
library callers run it in their own process.
"""

import gc
import sys


def main() -> None:
    from .cli import main

    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    main()
