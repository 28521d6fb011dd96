import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

from seqshape import Sequence, shaping

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def seq(symbols, ns):
    return Sequence(symbols=np.asarray(symbols, dtype=np.int64), ns=ns)


def built_info(ns, length):
    """Every sequence's value in lex order: the order tables' class ranks looked up in the class list."""
    _, values, _ = shaping._type_classes(ns, length)
    return np.array(values)[shaping._space_order(ns, length).class_ranks()]


def materialised(tables, size):
    """The whole-space ``(order, rank)`` the tables describe, ``int64``.

    The rank and unrank formulas of ``shaping._Tables``, applied to every
    lex index and every rank at once.
    """
    rows, cls, tails, pos, base, start = (
        np.asarray(a) for a in (tables.rows, tables.cls, tables.tails, tables.pos, tables.base, tables.start)
    )
    heads, (h, t) = rows.size, divmod(np.arange(size), tables.tail_size)
    i = rows[h] + t
    rank = start[cls[i].astype(np.int64) * heads + h] + pos[i]
    r = np.arange(size)
    j = np.searchsorted(base, r, "right") - 1
    h = j % heads
    order = h * tables.tail_size + tails[rows[h] + r - start[j]]
    return order, rank
