"""A fixed reference task that measures how fast the host runs right now.

A shared host changes speed by up to 2x in phases that last from seconds
to many minutes (other tenants on the same cores), and a run of the
benchmark lasts under a minute, so raw wall-clock times move with the
moment a run happens more than with the program.  The client therefore
times this reference task between requests, throughout every pass and
around every set-up, and reports each time at the host's reference speed:

    reported ms = measured ms x REFERENCE_MS / (median reference time nearby)

The task is pure Python shaped like the serve path (tokenise, count terms
in dicts, score with ``math.log``, sort, join strings, look terms up in a
vocabulary of a few MB) and does not import the program, so a change to the
program moves the reported times and a change of host speed mostly does
not.  The raw times are printed beside them.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

#: Time of one reference task at the reference speed: a round number near
#: its median when run alone on a 2-vCPU shared x86-64 host under CPython 3.
#: Between requests it reads 2-3.6 ms there, as the program's data evicts
#: its own from the caches.  A constant of the benchmark, never re-measured:
#: it only fixes the scale of the reported times.
REFERENCE_MS = 2.0

#: Client time between two reference tasks during a pass.
EVERY_S = 0.05

_rng = random.Random(7)
_WORDS = ["".join(_rng.choice("abcdefghilmnopqrstuvz") for _ in range(3 + i % 8))
          for i in range(400)]
_TEXTS = [" ".join(_WORDS[_rng.randrange(len(_WORDS))] for _ in range(30)) for _ in range(120)]
_QUERY = _TEXTS[0].split()[:6]
# A vocabulary of 50,000 terms (about 5 MB) looked up at random: the
# program's index and caches are far larger than a processor cache, and
# without this part the task does not slow down when the host's memory is
# the busy resource.
_VOCABULARY = {"".join(_rng.choice("abcdefghilmnopqrstuvz") for _ in range(6 + i % 6)): i
               for i in range(50_000)}
_LOOKUPS = _rng.sample(list(_VOCABULARY), 1_000)


def reference_task() -> str:
    """One fixed unit of work; returns its result so it cannot be skipped."""
    docs = [text.split() for text in _TEXTS]
    frequency: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            frequency[term] = frequency.get(term, 0) + 1
    scores = []
    for number, doc in enumerate(docs):
        counts: dict[str, int] = {}
        for term in doc:
            counts[term] = counts.get(term, 0) + 1
        score = sum(
            math.log(1 + len(docs) / frequency[term]) * counts[term] / (counts[term] + 1.2)
            for term in _QUERY if term in counts
        )
        scores.append((score, number))
    scores.sort(reverse=True)
    postings = sum(_VOCABULARY[term] for term in _LOOKUPS)
    return f"{postings} " + " ".join(
        word.upper() for _, number in scores[:10] for word in docs[number][:5]
    )


def time_task() -> float:
    """Milliseconds of one reference task, timed now."""
    start = perf_counter()
    reference_task()
    return (perf_counter() - start) * 1e3


def factor(task_ms: list[float]) -> float:
    """Multiplier from measured to reference-speed times, given the times
    of reference tasks run near the measurement."""
    return REFERENCE_MS / statistics.median(task_ms)
