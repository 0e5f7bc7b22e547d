"""Alignment files parsed in forked worker processes.

`ingest.parse_alignment_files` imports this module only when it parses in
workers, so that smaller inputs never compile it.  The workers are plain
`os.fork` children, and they share two kinds of pipe with the caller:

- one pipe of fixed-size file indices, largest file first, from which each
  worker claims the next file whenever it is free;
- one result pipe per worker, on which the worker sends, once no index is
  left, one pickle of its ``(index, result or exception)`` pairs.

A forked worker starts with the caller's modules, its paused garbage
collector and its parse function as they are, where a spawned one would
import them again and need the function pickled.  Forking is safe here
because the CLI runs no other thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

#: The bytes of one index on the claim pipe.  Each index is one write of fewer
#: than PIPE_BUF bytes, so the pipe always holds whole indices, and a worker's
#: read of this many bytes takes one.
_INDEX = 4


def _work(parse, files, claims, unclaimed, results: int) -> None:
    """A worker's whole life: parse each file whose index it reads from
    `claims`, send its outcomes to `results`, and exit.  It never returns."""
    code = 1
    try:
        unclaimed.close()  # else the claims would never end
        outcomes = []
        while index := claims.read(_INDEX):
            i = int.from_bytes(index, "little")
            try:
                outcomes.append((i, parse(files[i])))
            except Exception as exc:  # the caller raises it in file order
                outcomes.append((i, exc))
        with open(results, "wb") as fh:
            pickle.dump(outcomes, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    except Exception:  # such as an outcome that does not pickle
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def parse_in_workers(parse, files, sizes, workers: int) -> list:
    """``[parse(file) for file in files]``, computed by `workers` forked
    processes that claim the files largest first by `sizes`.

    The first exception in file order is raised, as that loop would raise it.
    A worker that ends before it sends its outcomes makes a RuntimeError that
    names the files no worker finished, unless an earlier file's exception
    comes first.  No worker outlives the call: on any exception in this
    process, KeyboardInterrupt included, every worker is killed, and each is
    reaped before the call returns or raises.
    """
    read, write = os.pipe()
    claims, unclaimed = open(read, "rb", buffering=0), open(write, "wb", buffering=0)
    pids, results, lost, outcomes = [], [], [], {}
    try:
        for _ in range(workers):
            read, write = os.pipe()
            results.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(parse, files, claims, unclaimed, write)
                pids.append(pid)
            finally:
                os.close(write)  # only the worker writes its results
        claims.close()
        try:
            for i in sorted(range(len(files)), key=sizes.__getitem__, reverse=True):
                unclaimed.write(i.to_bytes(_INDEX, "little"))
        except BrokenPipeError:  # every worker has ended; the outcomes show what is left
            pass
        unclaimed.close()
        for pid, fh in zip(pids, results):
            try:
                outcomes.update(pickle.load(fh))
            except (EOFError, pickle.UnpicklingError):  # it ended before it had sent them
                lost.append(pid)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fh in (claims, unclaimed, *results):
            fh.close()
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids}
    out = []
    for i in range(len(files)):
        if i not in outcomes:
            code = codes[lost[0]]
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            unfinished = [str(files[j][1]) for j in range(i, len(files)) if j not in outcomes]
            raise RuntimeError(f"worker process {lost[0]} {how} before it finished "
                               + ", ".join(unfinished))
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        out.append(outcomes[i])
    return out
