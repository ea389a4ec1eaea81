"""Capacity regions and decoding simulation for classical-quantum
multiple-access channels.

The package splits into a small dependency chain:

- :mod:`qmac.operators`: dense Hermitian linear algebra (eigendecompositions,
  operator square roots, tensor products, partial traces, trace norm).
- :mod:`qmac.channel`: the channel model, its JSON file format, priors,
  reduced and n-block channels, labeled classical-quantum ensembles.
- :mod:`qmac.entropy`: subsystem entropies (block formula plus a dense
  oracle), conditional and mutual information, subadditivity and
  error-entropy checks.
- :mod:`qmac.region`: constraint sets, successive-decoding corners,
  membership, mixtures, prior sweeps.
- :mod:`qmac.coding`: random codebooks, pretty-good-measurement decoders,
  gentle measurement instruments, exact sequential-decoding error accounting.
- :mod:`qmac.checks`: seeded randomized verification suites.
- :mod:`qmac.cli`: the ``qmac`` command.
"""

from .channel import (BlockChannel, ChannelFormatError, CqEnsemble,
                      CqMacChannel, Prior, channel_from_dict,
                      channel_state, load_channel, precompose_qq,
                      reduced_channel)
from .coding import (Codebook, Povm, SimReport, TenderInstrument,
                     average_error, disturbance_check, pgm_decoder,
                     run_simulation, sample_codebook, tender_bound_check)
from .config import CapExceeded
from .entropy import (SubsystemSelector, check_subadditivity, conditional_entropy,
                      fano_bound_check, mutual_information, restrict,
                      subsystem_entropy, subsystem_entropy_dense)
from .operators import (ValidationError, eig_hermitian, entropy_bits, op_sqrt,
                        partial_trace, tensor, trace_norm)
from .region import (MixtureSpec, RateConstraintSet, RatePoint, all_corners,
                     boundary_sweep, constraint_set, corner_table, is_member,
                     mixture_constraints, upper_boundary_2d)

__version__ = "0.1.0"

__all__ = [
    "BlockChannel", "CapExceeded", "ChannelFormatError", "Codebook",
    "CqEnsemble", "CqMacChannel", "MixtureSpec", "Povm",
    "Prior", "RateConstraintSet", "RatePoint", "SimReport",
    "SubsystemSelector", "TenderInstrument", "ValidationError",
    "all_corners", "average_error", "boundary_sweep",
    "channel_from_dict", "channel_state",
    "check_subadditivity", "conditional_entropy", "constraint_set",
    "corner_table", "disturbance_check", "eig_hermitian", "entropy_bits",
    "fano_bound_check", "is_member", "load_channel",
    "mixture_constraints", "mutual_information", "op_sqrt", "partial_trace",
    "pgm_decoder", "precompose_qq", "reduced_channel", "restrict",
    "run_simulation", "sample_codebook", "subsystem_entropy",
    "subsystem_entropy_dense", "tender_bound_check", "tensor",
    "trace_norm", "upper_boundary_2d",
]
