"""Disks whose write faults are enumerable (shared by the journal, broker
and replication tests; ``tests/`` is on ``sys.path`` through its
``conftest.py``)."""

from repro.durability import DiskWriteError, SimulatedDisk


class PrefixFaultDisk(SimulatedDisk):
    """A disk whose write faults keep a *chosen* prefix: ``fail_at(n, keep)``
    makes the ``n``-th append from now persist ``keep`` bytes and raise —
    what ``fail_writes`` does with a seeded ``keep``, made enumerable."""

    def __init__(self):
        super().__init__()
        self._countdown = None
        self._keep = 0

    def fail_at(self, nth, keep):
        self._countdown, self._keep = nth, keep

    def append(self, name, data):
        if self._countdown is not None:
            self._countdown -= 1
            if self._countdown == 0:
                self._countdown = None
                self.failed_writes += 1
                super().append(name, data[: self._keep])
                raise DiskWriteError(f"write to {name!r} failed after {self._keep} bytes")
        return super().append(name, data)
