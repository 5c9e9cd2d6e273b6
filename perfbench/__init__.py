"""End-to-end benchmark of the GraphLab runtime (see ``run.py``)."""
