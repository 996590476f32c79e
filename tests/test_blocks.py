"""Block feature tests."""

import pytest

from repro.features.blocks import Block, partition_block
from repro.render.linetypes import LineType
from tests.helpers import render

PAGE = render(
    "<html><body>"
    "<ul><li><a href='/1'>one</a><br>snip one</li>"
    "<li><a href='/2'>two</a><br>snip two</li></ul>"
    "</body></html>"
)


class TestBlockBasics:
    def test_len(self):
        assert len(Block(PAGE, 0, 1)) == 2

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            Block(PAGE, 2, 1)

    def test_out_of_page_raises(self):
        with pytest.raises(ValueError):
            Block(PAGE, 0, 99)

    def test_equality_and_hash(self):
        assert Block(PAGE, 0, 1) == Block(PAGE, 0, 1)
        assert Block(PAGE, 0, 1) != Block(PAGE, 0, 2)
        assert len({Block(PAGE, 0, 1), Block(PAGE, 0, 1)}) == 1

    def test_lines(self):
        block = Block(PAGE, 0, 1)
        assert [l.text for l in block.lines] == ["one", "snip one"]


class TestBlockFeatures:
    def test_type_codes(self):
        block = Block(PAGE, 0, 1)
        assert block.type_codes == (LineType.LINK, LineType.TEXT)

    def test_shape_relative_to_first_line(self):
        block = Block(PAGE, 0, 1)
        assert block.shape[0] == 0

    def test_position_is_first_line_x(self):
        block = Block(PAGE, 0, 1)
        assert block.position == PAGE.lines[0].position

    def test_text_attrs_one_per_line(self):
        block = Block(PAGE, 0, 3)
        assert len(block.text_attrs) == 4

    def test_tag_forest_cached(self):
        block = Block(PAGE, 0, 1)
        assert block.tag_forest() is block.tag_forest()
        assert [t.label for t in block.tag_forest()] == ["a", "br"]

    def test_text_property(self):
        assert "one" in Block(PAGE, 0, 1).text


class TestPartition:
    def test_partition_at_boundaries(self):
        block = Block(PAGE, 0, 3)
        parts = partition_block(block, [2])
        assert [(p.start, p.end) for p in parts] == [(0, 1), (2, 3)]

    def test_partition_no_boundaries(self):
        block = Block(PAGE, 0, 3)
        assert partition_block(block, []) == [block]

    def test_partition_covers_block_exactly(self):
        block = Block(PAGE, 0, 3)
        parts = partition_block(block, [1, 3])
        assert parts[0].start == block.start
        assert parts[-1].end == block.end
        total = sum(len(p) for p in parts)
        assert total == len(block)

    def test_partition_outside_raises(self):
        with pytest.raises(ValueError):
            partition_block(Block(PAGE, 0, 1), [3])
