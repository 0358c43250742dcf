"""Child processes whose own peak memory is read when they are reaped."""

from __future__ import annotations

import os
import subprocess


def spawn(argv, stdout_path, stderr_path, env=None):
    """Run argv to completion: (exit code, the child's own peak RSS in MB).

    `os.wait4` reports the reaped child's maximum RSS alone; RUSAGE_CHILDREN
    would keep the maximum over every child reaped so far.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0
