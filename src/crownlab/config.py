"""Central tolerance configuration.

Every numerical threshold used by the library lives in one frozen record so
that tests, the CLI and library callers agree on what "zero" means.  The
defaults are the contract; individual operations take a ``Tolerances``
argument for callers that need to tighten or loosen them coherently.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical thresholds.

    symmetry          relative gap allowed in structural checks (S = S^T,
                      hermitian, realness) before an input is rejected
    determinant       allowed |det(g) - 1| for SL(n) membership
    minor_floor_rel   leading-minor magnitude floor, relative to
                      max(1, ||S||_F); below it an input counts as outside
                      the complexified Iwasawa domain rather than as noise.
                      The same floor guards the domain test, the pivot-free
                      LDL, path continuation and the component scales
    sv_floor_rel      smallest singular value, relative to the largest,
                      below which a matrix counts as singular
    """

    symmetry: float = 1e-10
    determinant: float = 1e-9
    minor_floor_rel: float = 1e-13
    sv_floor_rel: float = 1e-13


DEFAULT_TOLERANCES = Tolerances()
