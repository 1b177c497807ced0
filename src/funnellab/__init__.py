"""funnellab: a desk-scale lab for entire-space multi-task conversion modeling.

Six click/conversion model designs (IP, ESMM, ESMM-NS, ESSP-Split, IPSP, ESP)
built on a minimal reverse-mode autodiff engine, trained on a synthetic
impression -> click -> conversion funnel with known ground truth, and compared
with baseline-normalized scores, SEMs, and Welch t-tests.
"""

from .autodiff import (Adam, CLAMP_EPS, DenseLayer, EmbeddingTable, Param, Tape,
                       dense_forward, gradient_check, relu, sigmoid, weighted_bce)
from .funnel import (Dataset, FunnelConfig, GroundTruth, bayes_ce,
                     downsample_negatives, generate_day, make_funnel_config, shuffle)
from .metrics import (ComparisonStats, MetricsRecord, calibration_ratio,
                      compare_models, normalized_performance, pr_auc,
                      two_sided_t_test, weighted_ce)
from .models import (MODEL_NAMES, MODEL_TABLE, Model, ModelCharacteristics,
                     NetworkConfig, build)
from .training import RunHistory, TrainConfig, evaluate, train

__version__ = "0.1.0"
