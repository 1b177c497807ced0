"""funnellab: a desk-scale lab for entire-space multi-task conversion modeling.

Six click/conversion model designs (IP, ESMM, ESMM-NS, ESSP-Split, IPSP, ESP)
built on a minimal reverse-mode autodiff engine, trained on a synthetic
impression -> click -> conversion funnel with known ground truth, and compared
with baseline-normalized scores, SEMs, and Welch t-tests.
"""
