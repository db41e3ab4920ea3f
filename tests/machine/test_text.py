"""The hand-scheduled VLIW text format (``parse_vliw``).

The format exists so gadgets and shrunk security cases serialize as
plain text; the contract is a lossless round trip with
``VLIWProgram.format()`` and loud errors on malformed input (ddmin
leans on the latter to reject structurally invalid reductions).
"""

import pytest

from repro.machine.text import parse_vliw
from repro.isa.parser import ParseError


GADGET = (
    "entry:\n"
    "  addi r1, r0, 20\n"
    "  [c0] ld r2, r1, 100 ; addi r4, r0, 1\n"
    "  nop\n"
    "  clti c0, r1, 8\n"
    "  halt\n"
)


class TestParse:
    def test_bundles_labels_region(self):
        program = parse_vliw(GADGET)
        assert len(program.bundles) == 5
        assert len(program.bundles[1]) == 2
        assert program.labels["entry"] == 0
        (region,) = program.regions
        assert (region.start, region.end) == (0, len(program.bundles))

    def test_bare_nop_is_an_empty_bundle(self):
        program = parse_vliw("entry:\n  nop\n  halt\n")
        assert len(program.bundles[0]) == 0

    def test_entry_label_injected_when_absent(self):
        program = parse_vliw("  addi r1, r0, 1\n  halt\n")
        assert program.labels["entry"] == 0

    def test_comments_and_blank_lines_ignored(self):
        program = parse_vliw(
            "# a gadget\nentry:\n\n  addi r1, r0, 1  # set up\n  halt\n"
        )
        assert len(program.bundles) == 2

    def test_numeric_index_prefixes_stripped(self):
        # format() emits "  NNNN: op ; op" lines; parse accepts them.
        program = parse_vliw("entry:\n  0003: addi r1, r0, 1\n  halt\n")
        assert len(program.bundles) == 2


class TestRoundTrip:
    def test_format_parse_format_is_stable(self):
        program = parse_vliw(GADGET)
        text = program.format()
        again = parse_vliw(text)
        assert again.format() == text
        assert [len(b) for b in again.bundles] == [
            len(b) for b in program.bundles
        ]


class TestErrors:
    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_vliw("# nothing here\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError):
            parse_vliw("a:\n  halt\na:\n  halt\n")

    def test_garbage_op_rejected(self):
        with pytest.raises(ParseError):
            parse_vliw("entry:\n  frobnicate r1\n")

    def test_undefined_second_branch_target_rejected(self):
        with pytest.raises(ValueError, match="nowhere"):
            parse_vliw("entry:\n  br2 c0, entry, nowhere\n  halt\n")
