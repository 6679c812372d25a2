"""Test-side oracles: reference statements that tests compare the library against."""

import numpy as np

from signalmfg.model import NONE_INDEX, SIGNALS


def signal_expectation(law: np.ndarray, values: np.ndarray) -> np.ndarray:
    """E[v(z) | e_c] under P(z | e_c), the ``signals.signal_laws`` table ``law`` (investors, 7, *shape(e_c)).

    ``values`` (7, investors, *shape(e_c)) holds v at each signal in
    ``SIGNALS`` order.  The terms P(z | e_c)*v(z) are added one column of
    ``law`` at a time: the no-signal term first, then the nonzero signals
    in order, the order in which the library adds m's terms.
    """
    total = law[:, NONE_INDEX] * values[NONE_INDEX]
    for z in [*range(NONE_INDEX), *range(NONE_INDEX + 1, len(SIGNALS))]:
        total += law[:, z] * values[z]
    return total
