"""One-loop scalar box integrals, three independent ways.

The massless box and the box with one off-shell external leg are evaluated
through closed hypergeometric forms (:mod:`mbbox.closed_form`), numerical
contour quadrature of their Mellin-Barnes representations plus residue
resummation (:mod:`mbbox.mb_engine`), and direct Feynman-parameter
quadrature (:mod:`mbbox.oracles`), all restricted to the Euclidean region.
The eps expansions return their three Laurent coefficients as plain
numbers; :mod:`mbbox.series` is the truncated-series helper that the
Laurent tests use as their reference, and no route calls it.
:mod:`mbbox.cli` wires everything into a command-line tool with
machine-readable reports.
"""

from .closed_form import (
    BoxValue,
    Kinematics,
    massless_box,
    massless_box_alt,
    massless_box_laurent,
    onemass_box,
    onemass_box_alt,
    onemass_box_laurent,
)
from .errors import (
    DegenerateKinematics,
    DivisionByZeroSeries,
    DomainError,
    EuclideanRegionViolation,
    MbboxError,
    NonConvergence,
    NotConverged,
    PoleError,
)
from .mb_engine import (
    mb_massless_eval,
    mb_onemass_eval,
    residue_massless,
    residue_onemass,
)
from .oracles import (
    beta_oracle,
    feynman_1d_massless,
    feynman_1d_onemass,
)
from .series import (
    RegulatorSeries,
    gamma_series,
    power_series,
)
from .specfun import (
    digamma,
    f21_11,
    f21_11_split,
    f21_1e,
    f21_2e,
    f21_general_series,
    gamma,
    li2,
    ln_gamma,
)

__version__ = "0.1.0"
