"""Set-up probe: time from interpreter start to the first experiment starting.

Usage: ``python3 setup_probe.py SRC_DIR CONFIG EXPERIMENT``

It drives ``actrep.cli.main`` as a user's command would, except that the
experiment's runner is replaced by a stub that stops the clock.  Import,
config parsing and the presentation build are covered; no experiment runs
and nothing is written.  The stub prints ``time.monotonic()``, a
system-wide clock from which the parent subtracts the moment it started
this process, and then the host speed measured on this process's CPU right
after set-up (see ``speed.py``).
"""

import sys
import time

src, config, experiment = sys.argv[1:4]
sys.path.insert(0, src)

from actrep import cli  # noqa: E402


def _stop(*_args):
    t = time.monotonic()
    import speed

    speed.kernel()  # the first call runs cold
    probe = speed.SpeedProbe()
    probe.around(5)
    print(repr(t), repr(probe.speed()), flush=True)
    raise SystemExit(0)


cli.RUNNERS[experiment] = _stop
cli.main([experiment, "--config", config])
raise SystemExit("setup probe: the experiment runner was never reached")
