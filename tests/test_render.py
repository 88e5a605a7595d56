import pathlib
import re
from fractions import Fraction

import pytest

from hnlab import objects, render
from hnlab.charges import DomainError, Phase
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    smooth,
    stable_piece,
)
from conftest import _crc32, _hashed_slot, fraction_shadow_svg, random_object, random_phase

GOLDEN = pathlib.Path(__file__).parent / "golden"

ARCHETYPES = [
    "torsion-multiple",
    "shifted-semistable-bundle",
    "three-step-complex",
    "unstable-torsion-free",
    "semistable-band",
    "etale-rank-two",
]


class TestProxy:
    def test_quarter_values(self):
        assert Fraction(*render._proxy(Phase((0, 1), 0))) == Fraction(1, 2)
        assert Fraction(*render._proxy(Phase((-1, 0), 0))) == 1
        assert Fraction(*render._proxy(Phase((1, 1), 0))) == Fraction(1, 4)
        assert Fraction(*render._proxy(Phase((-1, 1), 0))) == Fraction(3, 4)
        assert Fraction(*render._proxy(Phase((0, 1), 2))) == Fraction(5, 2)

    def test_monotone(self, rng):
        from conftest import random_phase

        phases = [random_phase(rng) for _ in range(300)]
        for p in phases:
            for q in phases:
                c = p.cmp(q)
                vp, vq = Fraction(*render._proxy(p)), Fraction(*render._proxy(q))
                if c < 0:
                    assert vp < vq
                elif c > 0:
                    assert vp > vq
                else:
                    assert vp == vq


class TestIntegerCoordinates:
    """The integer (num, den) pipeline prints what the Fraction one did."""

    @pytest.mark.parametrize("span", [6, 2**8, 2**256])
    def test_matches_fraction_pipeline(self, rng, span):
        for _ in range(300):
            x = random_object(rng, max_pieces=4, span=span)
            assert render.shadow_svg(x) == fraction_shadow_svg(x)

    def test_catalog_matches_fraction_pipeline(self):
        for x in objects.catalog().values():
            assert render.shadow_svg(x) == fraction_shadow_svg(x)

    def test_wide_objects_with_any_identifiers(self, rng):
        # up to 40 strips, and identifiers beyond x, y and z: unicode, and
        # 1,000 characters long
        idents = ["p0", "\u00e9t\u00e9", "\u7a7a\u95f4", "\U0001d53b" * 3, "x" * 1000,
                  "".join(chr(rng.randint(0xa0, 0x2fff)) for _ in range(1000))]
        strips = set()
        for _ in range(300):
            x = _labelled_object(rng, idents, rng.randint(0, 19))
            svg = render.shadow_svg(x)
            assert svg == fraction_shadow_svg(x)
            strips.add(svg.count("<text"))
        assert max(strips) >= 38

    def test_no_fractions_import(self):
        assert "fractions" not in render.__dict__ and "Fraction" not in render.__dict__


def _labelled_object(rng, idents, shifts):
    """An object of 1-6 pieces with phases in strips -shifts..shifts, each
    piece with 1-3 factors among the extreme label and smooth(i) for i in
    idents."""
    phases = sorted({random_phase(rng, 2**8, shifts) for _ in range(rng.randint(1, 6))},
                    reverse=True)
    pool = [EXTREME] + [smooth(i) for i in idents]
    pieces = []
    for p in phases:
        jh = JHComposition(tuple((lab, rng.randint(1, 3)) for lab in rng.sample(pool, rng.randint(1, 3))))
        pieces.append(SemistablePiece(p, jh, not jh.all_extreme()))
    return FormalObject(tuple(pieces))


def _random_ident(rng):
    """1-40 characters from ASCII, the BMP without surrogates and the astral planes."""
    pools = [(0x20, 0x7e), (0xa0, 0xd7ff), (0xe000, 0xfffd), (0x10000, 0x10ffff)]
    return "".join(chr(rng.randint(*rng.choice(pools))) for _ in range(rng.randint(1, 40)))


class TestDigest:
    """render's CRC-32 slots against the bitwise reference."""

    def test_check_value(self):
        # the standard CRC-32 check value
        assert _crc32(b"123456789") == 0xCBF43926
        assert render._band_slot("123456789") == render.BAND_TOP + 0xCBF43926 % render.BAND_HEIGHT

    def test_every_length_to_300(self, rng):
        # a smooth identifier is never empty
        for n in [*range(1, 301), 1000, 5000]:
            ident = "".join(chr(rng.randint(0x20, 0x7e)) for _ in range(n))
            assert render._band_slot(ident) == _hashed_slot(smooth(ident)), n

    def test_long_identifier(self, rng):
        # characters of one to four UTF-8 bytes
        ident = "".join(chr(rng.choice([0x7a, 0xe9, 0x4e2d, 0x1f600])) for _ in range(10**5))
        x = FormalObject((stable_piece(Phase((0, 1), 0), smooth(ident)),))
        assert f'cy="{_hashed_slot(smooth(ident))}"' in render.shadow_svg(x)

    def test_unicode_identifiers(self, rng):
        for _ in range(500):
            ident = _random_ident(rng)
            # surrogatepass changes the bytes of no string without a lone surrogate
            assert ident.encode("utf-8", "surrogatepass") == ident.encode("utf-8")
            assert render._band_slot(ident) == _hashed_slot(smooth(ident))

    def test_slots_of_random_identifiers(self, rng):
        for _ in range(10**4):
            ident = _random_ident(rng)
            assert render._band_slot(ident) == _hashed_slot(smooth(ident))

    def test_lone_surrogate_identifier(self):
        # a JSON string may hold one; it hashes as its surrogatepass bytes
        for ident in ["\ud800", "x\udfff", "\udc00\ud800"]:
            x = FormalObject((stable_piece(Phase((0, 1), 0), smooth(ident)),))
            assert render.shadow_svg(x) == fraction_shadow_svg(x)
            assert f'cy="{_hashed_slot(smooth(ident))}"' in render.shadow_svg(x)

    def test_one_height_per_identifier(self, rng):
        # a slot keeps no state: one identifier's dots sit at one height in
        # every object, at every shift and on every call
        for ident in ["x", "y", "\u00e9t\u00e9", "z" * 1000]:
            heights = {str(_hashed_slot(smooth(ident))), str(render.EXTREME_Y)}
            for _ in range(20):
                phases = sorted({random_phase(rng) for _ in range(rng.randint(1, 4))}, reverse=True)
                x = FormalObject(tuple(
                    SemistablePiece(p, JHComposition(((smooth(ident), rng.randint(1, 3)), (EXTREME, 1))), True)
                    for p in phases
                ))
                for k in (0, 2, -3):
                    y = objects.shift(x, k)
                    svg = render.shadow_svg(y)
                    assert set(re.findall(r'cy="(\d+)"', svg)) == heights
                    assert svg == render.shadow_svg(y) == fraction_shadow_svg(y)


@pytest.mark.parametrize("name", ARCHETYPES)
def test_golden_bytes(name):
    svg = render.shadow_svg(objects.catalog()[name])
    assert svg == (GOLDEN / f"{name}.svg").read_text()


class TestStructure:
    def test_well_formed(self, rng):
        for _ in range(50):
            svg = render.shadow_svg(random_object(rng))
            assert svg.startswith("<svg ")
            assert svg.endswith("</svg>\n")
            assert svg.count("<svg") == svg.count("</svg>") == 1

    def test_deterministic(self, rng):
        for _ in range(20):
            x = random_object(rng)
            assert render.shadow_svg(x) == render.shadow_svg(x)

    def test_single_piece_is_a_point(self):
        x = FormalObject((stable_piece(Phase((0, 1), 0), EXTREME),))
        svg = render.shadow_svg(x)
        assert "<polyline" not in svg
        assert svg.count("<circle") == 1

    def test_multi_piece_draws_segment(self):
        svg = render.shadow_svg(objects.catalog()["unstable-torsion-free"])
        assert "<polyline" in svg

    def test_extreme_sits_on_dashed_line(self):
        x = FormalObject((stable_piece(Phase((0, 1), 0), EXTREME),))
        svg = render.shadow_svg(x)
        assert f'cy="{render.EXTREME_Y}"' in svg

    def test_smooth_sits_in_band(self):
        x = FormalObject((stable_piece(Phase((0, 1), 0), smooth("x")),))
        svg = render.shadow_svg(x)
        cy = int(svg.split('cy="')[1].split('"')[0])
        assert render.BAND_TOP <= cy < render.BAND_TOP + render.BAND_HEIGHT

    def test_distinct_idents_usually_distinct_slots(self):
        assert render._slot(smooth("x")) != render._slot(smooth("y"))
        assert render._slot(smooth("x")) == render._slot(smooth("x"))

    def test_shift_translates_labels(self):
        x = objects.catalog()["semistable-band"]
        s0 = render.shadow_svg(x)
        s1 = render.shadow_svg(objects.shift(x, 1))
        assert ">0<" in s0 and ">1<" in s0
        assert ">1<" in s1 and ">2<" in s1
        # geometry is identical after renaming the slice labels
        renamed = (
            s1.replace(">1</text>", ">0</text>").replace(">2</text>", ">1</text>")
        )
        assert renamed == s0

    def test_integer_phase_gets_full_window(self):
        x = objects.catalog()["torsion-multiple"]  # sits exactly at phase 1
        svg = render.shadow_svg(x)
        assert ">0<" in svg and ">1<" in svg

    def test_empty_object_rejected(self):
        with pytest.raises(DomainError, match="^empty object has no shadow$"):
            render.shadow_svg(FormalObject(()))
