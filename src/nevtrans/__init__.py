"""Numerical toolkit for Herglotz-Nevanlinna function transformations.

Modules:

* ``specialfn``  — branch-correct square roots and closed-form fixed points
* ``herglotz``   — finite-data matrix Nevanlinna functions and kernel tests
* ``jacobi``     — block Jacobi truncations and their m-functions
* ``transforms`` — the two Moebius-type transformations and the iteration engine
* ``realize``    — dilation / chain-operator realizations of the transforms
* ``kac``        — Jacobi coefficients to step Hamiltonians
* ``canonical``  — canonical-system Weyl-disk m-function solver
* ``acceptance`` — named verification suites
* ``cli``        — command-line interface (``nevtrans``)
"""

from .canonical import WeylDiskEstimate, m_canonical, transfer_matrix, weyl_disk
from .herglotz import (
    RealizedFunction,
    SampleSet,
    asymptotic_C,
    class_n0_interval_gram,
    evaluate,
    is_psd_gram,
    nevanlinna_gram,
    random_contraction_resolvent,
    random_nevanlinna,
)
from .jacobi import BlockJacobi, build_J0, build_Jhat0, m_cf, m_resolvent, quadrature_m0
from .kac import StepHamiltonian, evaluate_H, hamiltonian_H0, hamiltonian_Hn, kac_algorithm
from .realize import (
    ChainOperator,
    SubspaceRealization,
    bold_T,
    chain_A,
    compressed_resolvent,
    compressed_resolvent_schur,
    defect_operator,
    simplicity_check,
)
from .specialfn import m0_gamma, m0_gammahat, sqrt_offcut
from .transforms import IterationTrace, gamma, gamma_hat, iterate_gamma_hat

__version__ = "0.1.0"

__all__ = [
    "BlockJacobi",
    "ChainOperator",
    "IterationTrace",
    "RealizedFunction",
    "SampleSet",
    "StepHamiltonian",
    "SubspaceRealization",
    "WeylDiskEstimate",
    "asymptotic_C",
    "bold_T",
    "build_J0",
    "build_Jhat0",
    "chain_A",
    "class_n0_interval_gram",
    "compressed_resolvent",
    "compressed_resolvent_schur",
    "defect_operator",
    "evaluate",
    "evaluate_H",
    "gamma",
    "gamma_hat",
    "hamiltonian_H0",
    "hamiltonian_Hn",
    "is_psd_gram",
    "iterate_gamma_hat",
    "kac_algorithm",
    "m0_gamma",
    "m0_gammahat",
    "m_canonical",
    "m_cf",
    "m_resolvent",
    "nevanlinna_gram",
    "quadrature_m0",
    "random_contraction_resolvent",
    "random_nevanlinna",
    "simplicity_check",
    "sqrt_offcut",
    "transfer_matrix",
    "weyl_disk",
]
