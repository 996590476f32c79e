"""Feature measures of the paper (Formulas 2-7) over content lines and blocks."""
