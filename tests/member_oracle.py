"""Per-member reference for the stacked family pass of ``qpa.verification``.

One member at a time: its table from ``member_function``, its hashed state
from ``apply_function`` as a full ``CQState``, and its mutual information
from that state's own ``StateDecomposition``; the oracle for
``member_mutual_info``, which must equal it exactly.
"""

from qpa.cqstate import apply_function
from qpa.hashing import member_function


def member_mutual_info_reference(state, family):
    """``mutual_info_variants`` of every hashed member state, built one by one, in index order."""
    return [
        apply_function(state, member_function(family, i)).decomposition.mutual_info_variants()
        for i in range(family.member_count)
    ]
