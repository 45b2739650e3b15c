"""The infospace command line as the installed ``infospace`` script runs it, plus its peak memory.

    python3 bench/cli_entry.py SUBCOMMAND [ARGS...]

Calls ``infospace.cli.main`` and exits with its code, like the console
script. Before exiting it writes ``peak_rss_kib N`` as the last line of
standard error: the peak resident set of this process image (``VmHWM``).
The parent's own ``ru_maxrss`` for a child cannot be used, because on Linux
it also counts the parent's resident set at spawn time.
"""

import sys

from infospace.cli import main


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        print(f"peak_rss_kib {peak_rss_kib()}", file=sys.stderr)
    sys.exit(code)
