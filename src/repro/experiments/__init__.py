"""Experiment harnesses — one module per evaluation exhibit (DESIGN.md §4).

Each harness returns a list of row-dicts and can print them as the
aligned table the corresponding paper figure/table reports.
``jobs/run.py EXHIBIT`` runs one exhibit's harnesses at full reproduction
scale; ``benchmarks/`` run reduced grids under pytest-benchmark.
"""
