"""End-to-end and per-layer benchmark of the bisymplectic verifier.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` runs
one workload; see ``bench/README.md``.
"""
