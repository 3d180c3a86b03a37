"""Set-up time probe, run in a fresh interpreter: import ``matern_contact.cli``
and complete one trivial invocation (which builds the argument parser).

Usage: setup_probe.py SRC_DIR   -- prints the elapsed seconds.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
start = time.perf_counter()
import matern_contact.cli as cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analytic", "--case", "ppp-ppp", "--points", "2", "--rmax", "1"])
elapsed = time.perf_counter() - start
if code != 0 or Path(cli.__file__).resolve().parent != src / "matern_contact":
    sys.exit(f"error: probe exit code {code}, package at {cli.__file__}")
print(repr(elapsed))
