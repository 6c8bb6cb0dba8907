"""Limited-resolution hybrid analog-digital precoding.

Designs hybrid precoders whose analog phase shifters and digital entries are
restricted to finite label sets, by alternating finite-alphabet least-squares
subproblems solved exactly (sphere decoding) or approximately (expectation
propagation), and ships a Monte Carlo harness for link-level evaluation.
"""

from .alphabets import (
    Alphabet, choose_delta, gaussian_step_coefficient,
    make_analog_alphabet, make_digital_alphabet, nearest_labels,
)
from .channel import (
    ChannelSet, LinkBudget, SystemConfig, array_response, draw_channel,
    fronthaul_accounting, noise_power_dbm, path_loss_db,
)
from .detect import (
    SolveResult, TriangularSystem, brute_force_ml, ep_solve, prepare_triangular, realify,
    sesd_solve,
)
from .hybrid import HybridPrecoder, alternate, init_analog_svd
from .wmmse import FullyDigitalPrecoder, RateReport, mse_to_target, sum_rate, wmmse_fully_digital

__version__ = "0.1.0"
