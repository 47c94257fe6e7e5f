"""Local fabric workers: ``jobs=N`` on this host.

:func:`local_workers` forks ``count``
:class:`~repro.fabric.worker.WorkerServer` processes, each serving a
loopback socket the parent bound before the fork, and yields their
addresses to an ordinary
:class:`~repro.fabric.coordinator.FabricCoordinator`.  Local and
remote runs thus share one retry policy, one checkpoint writer and one
metrics family.  Run the coordinator with ``max_rounds=0``: a dead
local worker is never respawned, so its address should go terminal at
once and its units move to the survivors.

Process hygiene, each rule learnt from a failure:

* the listening sockets are ``IPPROTO_TCP`` sockets -- asyncio sets
  ``TCP_NODELAY`` only on those, and with Nagle on every result/idle
  frame pair stalls ~40 ms on a delayed ACK;
* the parent closes its copy of each listening socket right after
  forking that worker, and the coordinator connects only after every
  fork, so no child holds a sibling's socket or the coordinator's end
  of a connection;
* a worker serves one connection and exits, and exits at once when
  the parent dies (it watches the parent's sentinel): a SIGKILLed
  coordinator leaves no orphans;
* workers ignore SIGINT; Ctrl-C reaches the coordinating process,
  which tears them down;
* every worker is SIGKILLed and joined on the way out -- SIGTERM stays
  pending on a SIGSTOPped process, and joining keeps worker CPU and
  RSS in the parent's ``RUSAGE_CHILDREN``.

Workers are forked, not spawned: they inherit the bound socket and the
job registry, test-registered job kinds included, and start warm.
:func:`~repro.faults.campaign.run_campaign` loads the campaign's
module into the shared build cache before it forks, so each worker's
harness finds it in memory and compiles nothing; and this module
imports ``concurrent.futures.thread``, which ``concurrent.futures``
would otherwise load in every worker at its first
``run_in_executor``.  The forks happen before the coordinator starts
its event loop, so no thread of this package is running when they do.
"""

from __future__ import annotations

import asyncio
import importlib
import multiprocessing as mp
import os
import signal
import socket
from contextlib import contextmanager
from typing import Iterator, List, Tuple

from repro.fabric.worker import WorkerServer

__all__ = ["local_workers"]

# Loaded before the forks so the workers inherit it: concurrent.futures
# imports its thread pool lazily, at a process's first run_in_executor.
importlib.import_module("concurrent.futures.thread")


def _serve_one(sock: socket.socket) -> None:
    """Forked worker main: serve one coordinator on ``sock``, then exit."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    loop = asyncio.new_event_loop()
    # The sentinel reads EOF once the parent is gone, connected or not.
    loop.add_reader(mp.parent_process().sentinel, os._exit, 0)
    loop.run_until_complete(WorkerServer(sock=sock, once=True).serve_forever())
    # Exit without joining a compute thread the coordinator gave up on.
    os._exit(0)


@contextmanager
def local_workers(count: int) -> Iterator[List[Tuple[str, int]]]:
    """Fork ``count`` loopback workers and yield their addresses.

    Every worker is SIGKILLed and joined when the block exits, however
    it exits.
    """
    if count < 1:
        raise ValueError("jobs must be >= 1")
    fork = mp.get_context("fork")
    processes = []
    addresses: List[Tuple[str, int]] = []
    try:
        for _ in range(count):
            with socket.socket(
                socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP
            ) as sock:
                sock.bind(("127.0.0.1", 0))
                sock.listen()
                process = fork.Process(
                    target=_serve_one, args=(sock,), daemon=True
                )
                process.start()
                processes.append(process)
                addresses.append(sock.getsockname())
        yield addresses
    finally:
        for process in processes:
            process.kill()
        for process in processes:
            process.join()
            process.close()
