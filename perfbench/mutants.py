"""Slowdown mutants: a fixed busy-wait added to one public function.

A mutant is applied at run time, in the benchmark's own process, by
wrapping the function wherever the loaded ``repro`` modules hold it;
``src/`` is never edited.  The benchmark's tests use the mutants to show
that a slower layer trips that layer's metric and the workload that
runs it, and leaves the workload that bypasses it within bounds.

Run a whole benchmark run under a mutant with::

    python3 -m perfbench.mutants transmit --workload packet-fig6 --seed 1 --seconds 10
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import ExitStack, contextmanager

#: name -> (module, class or None, function, added seconds per call)
MUTANTS = {
    "transmit": ("repro.netsim.network", "Network", "transmit", 100e-6),
    "serialize-chain": ("repro.netsim.flow", None, "serialize_chain", 300e-6),
}


def _slowed(fn, delay: float):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def applied(name: str):
    """Apply mutant ``name`` for the duration of the block."""
    module_name, class_name, attr, delay = MUTANTS[name]
    owner = sys.modules[module_name]
    if class_name is not None:
        owner = getattr(owner, class_name)
    original = getattr(owner, attr)
    slowed = _slowed(original, delay)
    # A module-level function is also bound under its name in every
    # module that imported it; replace each of those bindings too.
    holders = [owner] + [
        module for module_key, module in list(sys.modules.items())
        if class_name is None and module_key.startswith("repro")
        and module is not owner and getattr(module, attr, None) is original
    ]
    for holder in holders:
        setattr(holder, attr, slowed)
    try:
        yield
    finally:
        for holder in holders:
            setattr(holder, attr, original)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in MUTANTS:
        print(f"usage: python3 -m perfbench.mutants {{{','.join(MUTANTS)}}} <run.py args>",
              file=sys.stderr)
        return 2
    from perfbench import run

    name = argv.pop(0)
    with ExitStack() as stack:
        return run.main(argv, before_run=lambda: stack.enter_context(applied(name)))


if __name__ == "__main__":
    sys.exit(main())
