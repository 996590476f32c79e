"""The paper's contribution: the MSE section-extraction pipeline (steps 2-9)."""
