"""Experiment harnesses — one module per evaluation exhibit (DESIGN.md §4).

Each harness returns a list of row-dicts and can print them as the
aligned table the corresponding paper figure/table reports.
``exhibits.EXHIBITS`` defines each exhibit once, as the harness calls and
tables it prints: ``jobs/run.py EXHIBIT`` prints one at full reproduction
scale, and ``benchmarks/test_exhibits.py`` runs every one under
pytest-benchmark and checks the paper's shape in those same tables.
"""
