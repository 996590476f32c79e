"""Comparator baselines: MDR (Liu et al. 2003) and single-section ViNTs."""
