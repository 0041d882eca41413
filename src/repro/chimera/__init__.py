"""Chimera: the ongoing classification pipeline of Figure 2.

Gate Keeper → {rule-based, attribute/value-based, learning-based}
classifiers → Voting Master → Filter → result set, with a crowd-sampled
evaluation loop feeding analyst-written rules and relabeled training data
back into the system, plus the operational controls (scale down / repair /
restore / scale up) that section 2.2 requires of a deployed system.
"""

from repro.chimera.analysis import BatchReport, FeedbackLoop
from repro.chimera.classifiers import (
    AttributeValueClassifier,
    ClassifierStage,
    LearningClassifierStage,
    RuleBasedClassifier,
)
from repro.chimera.filter import FinalFilter
from repro.chimera.gatekeeper import GateAction, GateDecision, GateKeeper
from repro.chimera.incidents import Incident, IncidentManager
from repro.chimera.matching import RuleSetMatcher
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
    "RuleSetMatcher",
    "StageFault",
    "StageHealthMonitor",
    "VotingMaster",
]
