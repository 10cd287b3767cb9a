"""The one tolerance record.

``TOLERANCES`` holds the thresholds that decide whether an input or a
result counts as zero, real, symmetric, singular or outside the domain.
No function takes a tolerance argument: each reads ``config.TOLERANCES``
through this module when it is called, so rebinding that one name (as the
tests do with ``monkeypatch.setattr(config, "TOLERANCES", ...)``) moves
every reader at once and nothing can disagree on what "zero" means.
Parameters of one algorithm live as constants in its module instead, for
example ``iwasawa.MAX_ARG_JUMP`` and ``MAGNITUDE_DROP_GUARD`` (path
refinement), ``growth.PATTERN_STEP_FLOOR`` (the search's step floor), and
``prinseries.FINAL_DIFF_TOL`` with ``boundary_pairing``'s 1e-12 slack on
decreasing differences (the Cauchy verdict).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical thresholds.

    symmetry          relative gap allowed in structural checks (S = S^T,
                      hermitian, realness, tracelessness) before an input is
                      rejected
    determinant       allowed |det(g) - 1| for SL(n) membership
    orthogonality     allowed max |k^T k - 1| for a path's starting k in SO(n)
    diagonality       largest off-diagonal entry, relative to max(1, max |x|),
                      of a direction that counts as diagonal
    minor_floor_rel   leading-minor magnitude floor, relative to
                      max(1, ||S||_F) of the matrix's own S; at or below it
                      an input counts as outside the complexified Iwasawa
                      domain rather than as noise.  The same pointwise floor
                      (``numkernel.minor_floor``) guards the domain test,
                      the pivot-free LDL, every path point, the component
                      scales and the SL(2) bench's closed-form exits
    sv_floor_rel      smallest singular value, relative to the largest,
                      below which a matrix counts as singular
    boundary_rho      allowed |rho(x) - pi/2| for a sweep direction to count
                      as on the crown boundary
    """

    symmetry: float = 1e-10
    determinant: float = 1e-9
    orthogonality: float = 1e-8
    diagonality: float = 1e-12
    minor_floor_rel: float = 1e-13
    sv_floor_rel: float = 1e-13
    boundary_rho: float = 1e-12


TOLERANCES = Tolerances()
