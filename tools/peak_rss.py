#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

    python3 tools/peak_rss.py [--max-mb N] -- COMMAND [ARG ...]

The command's stdout and stderr pass through. The peak is the largest
resident set of the command or of any process it waited for
(getrusage(RUSAGE_CHILDREN).ru_maxrss), printed to stderr in MiB. The
child counts the interpreter's pages it shares until it execs, so the
reading never falls below this script's own ~14 MiB. Exits with the
command's status if it failed, and with 1 if the peak is above --max-mb.
"""
import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float,
                        help="fail when the peak exceeds this many MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    status = subprocess.call(command)
    # Linux reports ru_maxrss in KiB.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss_mb {peak_mb:.1f}", file=sys.stderr)
    if status != 0:
        print(f"error: command exited with status {status}", file=sys.stderr)
        return status if status > 0 else 1
    if args.max_mb is not None and peak_mb > args.max_mb:
        print(f"error: peak RSS {peak_mb:.1f} MiB exceeds {args.max_mb} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
