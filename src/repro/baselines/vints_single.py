"""Single-section ViNTs baseline.

ViNTs [29] — the system MSE extends — "assumes there is only one (major)
MR to be extracted" and compares all tentative MRs to find the best one.
This baseline reproduces that restriction on top of our MRE component:
wrapper induction keeps only the *main* (largest) section per page, so on
multi-section engines every secondary section is missed by construction —
the paper's motivation for MSE.
"""

from __future__ import annotations

from typing import List

from repro.core.mse import MSE


class SingleSectionMSE(MSE):
    """MSE restricted to the single main section (ViNTs behaviour)."""

    def select_sections(self, sections_per_page: List[List]) -> List[List]:
        # The pipeline's select hook (between per-page analysis and
        # cross-page grouping): keep only each page's main section.
        reduced: List[List] = []
        for sections in sections_per_page:
            if sections:
                main = max(
                    sections, key=lambda s: (len(s.records), s.end - s.start)
                )
                reduced.append([main])
            else:
                reduced.append([])
        return reduced

    def build_wrapper(self, samples):
        engine = super().build_wrapper(samples)
        # One schema total: different pages may elect different "main"
        # sections, but ViNTs commits to the single major one — keep the
        # wrapper with the most records, drop families.
        if engine.wrappers:
            major = max(engine.wrappers, key=lambda w: w.typical_records)
            engine.wrappers = [major]
        engine.families = []
        return engine
