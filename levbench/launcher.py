"""Start the harness's commands from a small process and report their resources.

The harness holds large arrays while it checks outputs.  A command started
directly from it would report the harness's resident set as part of its own
``ru_maxrss``: Linux records the high-water mark of the address space that
``exec`` replaces, and a vfork-started child replaces its parent's.  This
process stays small, so the ``ru_maxrss`` it collects with ``wait4`` is the
command's own.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "stderr"}``; one JSON reply per stdout line, ``{"start", "wall",
"maxrss_kib", "code"}`` with ``start`` on the system-wide monotonic clock.
The process exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"start": start, "wall": wall,
                                     "maxrss_kib": usage.ru_maxrss,
                                     "code": proc.returncode}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
