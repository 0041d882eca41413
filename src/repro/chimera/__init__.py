"""Chimera: the ongoing classification pipeline of Figure 2.

Gate Keeper → {rule-based, attribute/value-based, learning-based}
classifiers → Voting Master → Filter → result set, with a crowd-sampled
evaluation loop feeding analyst-written rules and relabeled training data
back into the system, plus the operational controls (scale down / repair /
restore / scale up) that section 2.2 requires of a deployed system.
"""

from repro import lazy_exports
from repro.chimera.classifiers import (
    AttributeValueClassifier,
    ClassifierStage,
    LearningClassifierStage,
    RuleBasedClassifier,
    RuleFold,
)
from repro.chimera.filter import FinalFilter
from repro.chimera.gatekeeper import GateAction, GateDecision, GateKeeper
from repro.chimera.incidents import Incident, IncidentManager
from repro.chimera.monitoring import (
    BatchStats,
    BreakerState,
    CircuitBreaker,
    GuardedStage,
    PrecisionMonitor,
    StageFault,
    StageHealthMonitor,
)
from repro.chimera.pipeline import BatchResult, Chimera, ItemResult
from repro.chimera.voting import VotingMaster

# Read on first access (:func:`repro.lazy_exports`): a served daemon never
# reads these names, so it never compiles their modules.
__getattr__ = lazy_exports(__name__, {
    "analysis": ("BatchReport", "FeedbackLoop"),
})

__all__ = [
    "AttributeValueClassifier",
    "BatchReport",
    "BatchResult",
    "BatchStats",
    "BreakerState",
    "Chimera",
    "CircuitBreaker",
    "ClassifierStage",
    "FeedbackLoop",
    "FinalFilter",
    "GateAction",
    "GateDecision",
    "GateKeeper",
    "GuardedStage",
    "Incident",
    "IncidentManager",
    "ItemResult",
    "LearningClassifierStage",
    "PrecisionMonitor",
    "RuleBasedClassifier",
    "RuleFold",
    "StageFault",
    "StageHealthMonitor",
    "VotingMaster",
]
