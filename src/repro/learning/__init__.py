"""Learning substrate: the paper's section 3.1 ensemble, from scratch.

"We train a set of learning-based classifiers (e.g., Naive Bayes, kNN, SVM,
etc.), often combining them into an ensemble." No ML library is assumed:
TF-IDF features, Multinomial Naive Bayes, k-nearest-neighbours, a linear
SVM (one-vs-rest SGD hinge), softmax logistic regression, and a weighted
voting ensemble are implemented directly on numpy; their sparse algebra is
:mod:`repro.learning.sparse`, which reproduces scipy.sparse's results bit
for bit without importing it.

Importing this package imports numpy. Chimera therefore imports it only
where it fits a learner (``LearningClassifierStage.fit`` builds
:func:`default_ensemble` there), so a rules-only process never loads it.
"""

from repro import lazy_exports
from repro.learning.base import LabelEncoder, Prediction, TextClassifier
from repro.learning.ensemble import VotingEnsemble, default_ensemble
from repro.learning.features import TfidfVectorizer
from repro.learning.knn import KNearestNeighbors
from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.learning.svm import LinearSvmClassifier

# Read on first access (:func:`repro.lazy_exports`): the default ensemble
# has no logistic member, so a learning daemon never compiles it.
__getattr__ = lazy_exports(__name__, {"logistic": ("LogisticRegressionClassifier",)})

__all__ = [
    "KNearestNeighbors",
    "LabelEncoder",
    "LinearSvmClassifier",
    "LogisticRegressionClassifier",
    "MultinomialNaiveBayes",
    "Prediction",
    "TextClassifier",
    "TfidfVectorizer",
    "VotingEnsemble",
    "default_ensemble",
]
