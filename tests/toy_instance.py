"""The fixed 3x3 workbench instance shared by the attack and acceptance tests.

An attacker observes masked rows ``TOY_OBSERVED`` and their re-encryption
``TOY_TARGET`` under a cubic key with coefficients ``TOY_TRUE_COEFFS`` over
the shared basis ``TOY_BASE``; the row mask applied with it stays hidden.
"""

import numpy as np

TOY_BASE = np.array([[-0.626, 1.595, 0.487],
                     [0.184, 0.330, 0.738],
                     [-0.836, -0.820, 0.576]])
TOY_OBSERVED = np.array([[0.695, 0.379, 0.955],
                         [2.512, -1.215, 0.984],
                         [1.390, 2.125, 1.944]])
TOY_TARGET = np.array([[7.517, -5.452, -6.865],
                       [11.13, -16.98, -2.897],
                       [17.12, -23.77, -38.04]])
TOY_TRUE_COEFFS = np.array([8.0, 0.3, -2.0])

# Exact per-column solutions of the instance, to 4 decimals. The three
# columns contradict each other, which is the whole point: the naive
# attacker cannot settle on one key. The triples once printed for this
# instance do not solve it (residuals 12.8, 8.8, 17.0); DECISIONS.md
# records them and the recomputation.
TOY_COLUMN_SOLUTIONS = np.array([
    [-5.6922, -3.4895, -0.4194],
    [-8.2412, -1.6722, 4.1230],
    [-25.8296, 0.6838, -12.8198],
])
