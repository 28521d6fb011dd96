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
    """Every sequence's value in lex order: the order build's class ranks looked up in the class list."""
    _, values = shaping._type_classes(ns, length)
    return values[shaping._info_by_lex_index(ns, length)]
