"""Evaluation kit: ground-truth matching, metrics, and the Tables 1-3 harness."""
