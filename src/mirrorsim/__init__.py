"""Two-body joint, marginal and measurement-conditioned probability densities
for a quantum particle reflecting elastically from a moving mirror."""

from .kinematics import (PhysicalParams, CmRelParams, elastic_final_velocities,
                         to_cm_rel, from_cm_rel, thermal_spread, coherence_length,
                         SI_H, SI_HBAR, SI_KB)
from .harmonic import (HarmonicMode, SpacetimePoint, incident_amplitude,
                       reflected_amplitude, eigenstate_amplitude,
                       interference_pdf, fringe_spacing, fringe_period,
                       beat_frequency)
from .wavegroup import (WavegroupSpec, ComplexQuadraticForm, gaussian_integral,
                        spectral_amplitude, amplitude_closed, amplitude_parts,
                        amplitude_quadrature, joint_pdf, currents)
from .measurement import (MeasurementEvent, ConditionalMirrorState, collapse,
                          sequential_probability, classify_regime,
                          split_centroid_velocities, UnresolvedSplittingError)
from .observables import (FringeReport, DecoherenceEstimate, marginal_over_mirror,
                          marginal_over_particle, extract_fringes, doppler_beat,
                          decoherence_report, coherence_transfer_metrics)
from .conservation import (ContinuityResidual, current_j1, current_j2,
                           continuity_residual, convergence_order, segment_balance)
from .grids import AxisSpec, GridSpec, FieldGrid, Curve
from .scenario import (Scenario, PRESETS, PRESET_GROUPS, resolve_preset,
                       load_scenario, from_config, to_config, serialize,
                       scenario_hash, joint_pdf_grid)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
