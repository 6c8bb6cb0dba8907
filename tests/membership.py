"""Label-set membership, the check the tests apply to every solver output."""

import numpy as np

from hybridprec.alphabets import Alphabet


def is_member(values: np.ndarray, alphabet: Alphabet) -> bool:
    """True if every entry equals some label bit-identically."""
    values = np.asarray(values).ravel()
    return bool(np.all(np.isin(values, alphabet.labels)))
