import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from okbodies.curves import ArakelovFlag, CurveBodyJob, TropicalFlag, compute_body
from okbodies.errors import DimensionMismatch, WindowEmpty
from okbodies.graphs import Divisor
from okbodies.polyhedra import VPolyhedron
from okbodies.rationals import to_decimal20
from okbodies.svgplot import render_svg
from okbodies.toric import ToricFlag, ToricModel, toric_body
from tests.test_curves import quartic_lam
from tests.test_graphs import quartic

F = Fraction


def tropical_body():
    g = quartic()
    return compute_body(CurveBodyJob(g, quartic_lam(g),
                                     TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P")),
                        cross_check=False)


def test_valid_xml_and_labels():
    svg = render_svg(tropical_body(), (-1, 5, -1, 4))
    root = ET.fromstring(svg)
    assert root.attrib["version"] == "1.1"
    assert "(2, 0)" in svg and "(4, 1/2)" in svg
    assert "<polygon" in svg
    assert "hatch" not in svg  # hatches are plain lines; just ensure no crash


def test_band_body_rendering():
    g = quartic()
    body = compute_body(CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P")),
                        cross_check=False)
    svg = render_svg(body, (-1, 4, -1, 5))
    ET.fromstring(svg)
    assert "(1/2, 4)" in svg


def test_vpolyhedron_rendering():
    body = VPolyhedron([(0, 0), (1, 1)], [(0, 1)])
    svg = render_svg(body, (F(-1), F(2), F(-1), F(3)))
    ET.fromstring(svg)
    assert "<polygon" in svg


def body_stroke(svg):
    """End points (x1, y1, x2, y2) of the one line that draws a 1-D body."""
    (line,) = [e for e in ET.fromstring(svg).iter()
               if e.tag.endswith("line") and "#3182bd" in e.get("style", "")]
    return tuple(line.get(k) for k in ("x1", "y1", "x2", "y2"))


def test_half_line_body_is_capped_at_its_vertex():
    # the toric body of this model is the vertex (0, 0) plus the ray (0, 1);
    # in the window [-1, 1] x [-1, 2] it is the segment (0, 0)-(0, 2), not
    # the whole vertical line through the window
    model = ToricModel(1, [((1,), 0), ((-1,), 0)], [((0,), 0)])
    body = toric_body(model, ToricFlag([((1, 0), 0), ((0, 1), 0)]))
    assert body == VPolyhedron([(0, 0)], [(0, 1)])
    svg = render_svg(body, (-1, 1, -1, 2))
    # y = 0 sits 1/3 of the way up the 380-pixel drawing height
    assert body_stroke(svg) == ("320", "303.33333333333333333", "320", "50")


def test_segment_body_is_capped_at_both_ends():
    svg = render_svg(VPolyhedron([(0, 0), (1, 1)]), (-1, 2, -1, 2))
    assert body_stroke(svg) == ("230", "303.33333333333333333",
                                "410", "176.66666666666666667")


def test_empty_body_axes_only():
    svg = render_svg(VPolyhedron([], []), (-1, 1, -1, 1))
    ET.fromstring(svg)
    assert "<polygon" not in svg
    assert "<line" in svg  # the axes


def test_degenerate_window_rejected():
    with pytest.raises(WindowEmpty):
        render_svg(tropical_body(), (1, 1, 0, 2))
    with pytest.raises(WindowEmpty):
        render_svg(tropical_body(), (2, 1, 0, 2))


def test_non_2d_body_is_a_dimension_error():
    # the window is fine; the body is what cannot be drawn
    with pytest.raises(DimensionMismatch, match="this body is 3-D") as info:
        render_svg(VPolyhedron([(0, 0, 0)]), (0, 1, 0, 1))
    assert not isinstance(info.value, WindowEmpty)


def test_window_outside_body():
    # window that misses the body entirely: axes, no polygon
    svg = render_svg(tropical_body(), (-10, -5, -10, -5))
    ET.fromstring(svg)
    assert "<polygon" not in svg


def test_decimal_rule():
    assert to_decimal20(F(1, 2)) == "0.5"
    assert to_decimal20(F(1, 3)) == "0.33333333333333333333"
    assert to_decimal20(F(-7)) == "-7"
    assert to_decimal20(F(0)) == "0"


def test_coordinates_use_decimal_rule():
    svg = render_svg(tropical_body(), (0, 3, 0, 3))
    # breakpoint at t = 2 sits 2/3 of the way across the drawing area:
    # 50 + (2/3)*540 = 410, an exact decimal under the 20-digit rule
    assert 'cx="410"' in svg
    ET.fromstring(svg)


def test_decimal_rule_keeps_caller_context():
    import decimal
    ctx = decimal.getcontext()
    saved = ctx.prec
    ctx.prec = 7
    try:
        assert to_decimal20(F(1, 3)) == "0.33333333333333333333"
        render_svg(tropical_body(), (0, 3, 0, 3))
        assert decimal.getcontext().prec == 7
    finally:
        ctx.prec = saved
