"""Walk through the paper, figure by figure, on a healthcentral.com-like
page (the paper's Figure 1 example).

The paper's figures are illustrations of pipeline stages rather than
result plots; this script regenerates each of them as text:

- Figure 1: the multi-section result page;
- Figure 2/3: the DOM view — content lines in pre-order with tag paths,
  sections and template interleaved;
- §5.1: the tentative multi-record sections MRE finds;
- Figure 5: the CSBMs DSE identifies and the DSs between them;
- Figures 6-8: the refinement of MRs against DSs;
- Figure 9: the section-instance match graph across sample pages;
- Figures 10/11: the induced wrappers and section families;
- finally: extraction from an unseen page.

Run:  python examples/paper_walkthrough.py
"""

from repro.core.dse import run_dse
from repro.core.grouping import group_section_instances, match_score
from repro.core.mre import extract_mrs
from repro.core.mse import MSE, build_wrapper
from repro.core.refine import refine_page
from repro.htmlmod.parser import parse_html
from repro.render.layout import render_page

TOPICS = {
    "Encyclopedia": 5,
    "Dr. Dean Edell": 1,
    "News": 5,
    "Peoples Pharmacy": 2,
}

ARTICLES = {
    "Encyclopedia": ["Knee Injury", "Ultrasound in Obstetrics", "Lupus and Pregnancy",
                     "Colic", "Lymphoma", "Asthma Basics", "Migraine Care"],
    "Dr. Dean Edell": ["We Are Still Too Fat, Again", "Sleep and the Heart"],
    "News": ["AMA Guides Doctors on Older Drivers", "Mental Illness Strikes Babies, Too",
             "Eating Pyramid Style", "Guided Lasers Help Treat Uterine Fibroids",
             "Panel: Cut Salt, Let Thirst Be Water Guide", "Flu Season Arrives Early"],
    "Peoples Pharmacy": ["Antidepressant Can Raise Cholesterol",
                         "Another Fish Oil Tale Of Gray Hair Gone",
                         "Vitamins and Memory"],
}


def healthcentral_page(query: str, counts: dict) -> str:
    """A page shaped like the paper's Figure 1."""
    total = sum(counts.values()) * 97 % 991
    parts = [
        "<html><body>",
        "<h1>healthcentral</h1>",
        f"<p>Your search returned {total} matches.</p>",
    ]
    salt = sum(ord(c) for c in query)
    for topic, count in counts.items():
        if count <= 0:
            continue
        pool = ARTICLES[topic]
        parts.append(f"<p><b>{topic}</b></p><ul>")
        for i in range(count):
            title = pool[(i + salt) % len(pool)]
            parts.append(
                f'<li><a href="/a/{i}">{title} --{topic}-- '
                f"({(i + salt) % 12 + 1}/{(i * 7 + salt) % 27 + 1}/2004)</a>"
                f"<br>{title} relates to {query}.</li>"
            )
        parts.append("</ul>")
        if count >= 5:
            parts.append('<p><a href="/more">Click Here for More</a></p>')
    parts.append("<p><small>About Us | Privacy | Copyright 2006</small></p>")
    parts.append("</body></html>")
    return "".join(parts)


def main() -> None:
    queries = ["knee pain", "pregnancy diet", "cholesterol"]
    count_plans = [
        {"Encyclopedia": 5, "Dr. Dean Edell": 1, "News": 5, "Peoples Pharmacy": 2},
        {"Encyclopedia": 4, "Dr. Dean Edell": 0, "News": 5, "Peoples Pharmacy": 3},
        {"Encyclopedia": 5, "Dr. Dean Edell": 2, "News": 3, "Peoples Pharmacy": 0},
    ]
    samples = [
        (healthcentral_page(q, plan), q) for q, plan in zip(queries, count_plans)
    ]

    print("=" * 72)
    print("Figure 1/2/3 — the rendered page as content lines (pre-order)")
    print("=" * 72)
    page0 = render_page(parse_html(samples[0][0]))
    print(page0.dump())

    print()
    print("=" * 72)
    print("§5.1 MRE — tentative multi-record sections")
    print("=" * 72)
    pages = [render_page(parse_html(markup)) for markup, _ in samples]
    mrs_per_page = [extract_mrs(p) for p in pages]
    for mr in mrs_per_page[0]:
        print(f"  MR lines {mr.start}..{mr.end}: "
              f"{[(r.start, r.end) for r in mr.records]}")

    print()
    print("=" * 72)
    print("Figure 5 — DSE: boundary markers (*) and dynamic sections")
    print("=" * 72)
    csbms, dss = run_dse(pages, [q for _, q in samples], mrs_per_page)
    for line in pages[0].lines:
        tag = "*" if line.number in csbms[0] else " "
        print(f"  {tag} [{line.number:2d}] {line.text[:58]}")
    print(f"  DSs: {[(d.start, d.end) for d in dss[0]]}")

    print()
    print("=" * 72)
    print("Figures 6-8 — refinement of MRs against DSs")
    print("=" * 72)
    result = refine_page(pages[0], mrs_per_page[0], dss[0], csbms[0])
    for section in result.sections:
        lbm = pages[0].lines[section.lbm].text if section.lbm is not None else "-"
        print(f"  section {section.start}..{section.end} "
              f"({len(section.records)} records), LBM={lbm!r}")
    for pending in result.pending:
        print(f"  pending DS {pending.start}..{pending.end} (to be mined, §5.4)")

    print()
    print("=" * 72)
    print("Figure 9 — the section-instance match graph (stable marriage +")
    print("Bron-Kerbosch cliques over sample pages)")
    print("=" * 72)
    sections_per_page = MSE().analyze_pages(samples)
    for i, sections in enumerate(sections_per_page):
        print(f"  page {i}: " + ", ".join(
            f"[{s.start}..{s.end}]" for s in sections))
    groups = group_section_instances(sections_per_page)
    for g_index, group in enumerate(groups):
        members = ", ".join(
            f"p{page_index}[{inst.start}..{inst.end}]"
            for page_index, inst in group.members
        )
        print(f"  clique {g_index}: {members}")

    print()
    print("=" * 72)
    print("Figures 10/11 — wrappers and section families")
    print("=" * 72)
    engine = build_wrapper(samples)
    for wrapper in engine.wrappers:
        print(f"  {wrapper.schema_id}: pref={wrapper.pref} sep={wrapper.separator} "
              f"LBM={sorted(wrapper.lbm_texts)}")
    for family in engine.families:
        print(f"  family {family.family_id} ({type(family).__name__}): "
              f"members {family.member_ids}")

    print()
    print("=" * 72)
    print("Extraction from an unseen page (new query, new section mix)")
    print("=" * 72)
    unseen = healthcentral_page(
        "lymphoma", {"Encyclopedia": 3, "Dr. Dean Edell": 1, "News": 2,
                     "Peoples Pharmacy": 4}
    )
    extraction = engine.extract(unseen, "lymphoma")
    for section in extraction.sections:
        print(f"  [{section.lbm_text}] {len(section)} records")
        for record in section.records:
            print(f"     - {record.lines[0][:64]}")


if __name__ == "__main__":
    main()
