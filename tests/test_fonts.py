"""Font metric tests."""

from repro.render.fonts import char_width, text_width
from repro.render.styles import TextAttr


class TestCharWidth:
    def test_scales_with_size(self):
        small = char_width(TextAttr(size=10))
        large = char_width(TextAttr(size=20))
        assert large == 2 * small

    def test_bold_wider(self):
        plain = char_width(TextAttr())
        bold = char_width(TextAttr(style="bold"))
        assert bold > plain

    def test_monospace_wider_than_times(self):
        times = char_width(TextAttr(font="times new roman"))
        mono = char_width(TextAttr(font="courier new"))
        assert mono > times

    def test_unknown_font_uses_default(self):
        assert char_width(TextAttr(font="papyrus")) > 0


class TestTextWidth:
    def test_proportional_to_length(self):
        attr = TextAttr()
        assert text_width("aa", attr) == 2 * text_width("a", attr)

    def test_empty_string(self):
        assert text_width("", TextAttr()) == 0.0
