"""Run environment and kernel socket counters, read from outside.

Nothing here imports the program: the counters come from ``/proc`` so
accept-queue drops show up without code inside the servers.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from pathlib import Path

#: /proc/net/tcp state code for TIME_WAIT.
_TIME_WAIT = "06"


def environment() -> dict:
    """What a result depends on beyond the code: stored with each run."""
    import numpy

    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": load1,
    }


def netstat_counters(names=("ListenOverflows", "ListenDrops")) -> dict:
    """Selected ``TcpExt`` counters from ``/proc/net/netstat``.

    Missing file or fields read as 0: the counters are a validity guard,
    not something a run should fail on.
    """
    out = {name: 0 for name in names}
    try:
        lines = Path("/proc/net/netstat").read_text().splitlines()
    except OSError:
        return out
    for header, values in zip(lines[::2], lines[1::2]):
        if not header.startswith("TcpExt:"):
            continue
        table = dict(zip(header.split()[1:], values.split()[1:]))
        for name in names:
            out[name] = int(table.get(name, 0))
    return out


def netstat_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def time_wait_sockets() -> int:
    """Sockets in TIME_WAIT across ``/proc/net/tcp`` and ``tcp6``."""
    count = 0
    for name in ("tcp", "tcp6"):
        try:
            lines = Path(f"/proc/net/{name}").read_text().splitlines()
        except OSError:
            continue
        for line in lines[1:]:
            fields = line.split()
            if len(fields) > 3 and fields[3] == _TIME_WAIT:
                count += 1
    return count


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform != "darwin" else 1 / 1024
    return kib * scale / 1024
