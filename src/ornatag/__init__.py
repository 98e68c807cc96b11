"""Playing-technique tagging for monophonic melodies.

A linear-chain CRF produces a per-position prediction matrix; a small
logic-rule language produces a multiplicative weight matrix over the
same grid; the two are fused cell by cell and decoded per column.

The package root exports the names the README's Library section uses;
everything else is imported from its module (``ornatag.metrics``,
``ornatag.synth``, ...).
"""

__version__ = "0.1.0"

from .combine import TagResult, tag_with_knowledge
from .errors import InputError, OrnatagError
from .rules import parse_rules
from .score import Melody, TagSet, parse_corpus, parse_note
from .tagger import TrainConfig, train

__all__ = [
    "__version__",
    "InputError",
    "Melody",
    "OrnatagError",
    "TagResult",
    "TagSet",
    "TrainConfig",
    "parse_corpus",
    "parse_note",
    "parse_rules",
    "tag_with_knowledge",
    "train",
]
