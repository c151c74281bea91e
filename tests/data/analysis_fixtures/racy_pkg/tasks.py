"""Task functions for the race fixtures.

``racy_sum_task`` violates the backend contract on purpose: it
accumulates into a module-level list, so the value each call returns
depends on which *other* calls appended to the same copy of that list —
all of them in one process, only its own partitions' in a worker
process.
"""

_ACC = []


def reset():
    del _ACC[:]


def racy_sum_task(partition):
    _ACC.append(float(sum(partition)))
    return float(sum(_ACC))


def clean_sum_task(partition):
    return float(sum(partition))
