"""End-to-end WebTassili benchmark with a per-layer breakdown.

Run ``python3 perfbench/run.py --help`` from the repository root; the
benchmark's own tests run with ``python3 -m pytest perfbench``.
"""
