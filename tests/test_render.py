"""Diagram layout and the SVG/DOT emitters."""

import lemmas
from latcon import catalog, core
from latcon import render as rd
from latcon import rectangular as rl


class TestSteepEdges:
    def test_fork_has_one_steep_edge(self):
        assert rd.steep_edges(catalog.s7().lattice) == frozenset({(4, 6)})

    def test_plain_grids_have_none(self):
        for name in ("grid-2x2", "grid-3x3", "grid-2x4"):
            assert rd.steep_edges(catalog.get(name)) == frozenset()

    def test_eye_edges_are_steep(self):
        # the middle element of a 3-fan hangs on steep edges
        assert rd.steep_edges(catalog.get("m3")) == frozenset({(0, 3), (3, 4)})

    def test_double_fork_has_two(self):
        asm = lemmas.assemblies()["fork-both"]
        L = asm.result.lattice
        steep = rd.steep_edges(L)
        assert len(steep) == 2
        for u, v in steep:
            assert L.is_cover(u, v)


class TestLayout:
    def test_m3_coordinates_frozen(self):
        spec = rd.render_spec(catalog.get("m3"))
        assert spec.coords == {
            0: (0.0, 0.0),
            2: (-1.0, 1.0),
            3: (0.0, 1.0),
            1: (1.0, 1.0),
            4: (0.0, 2.0),
        }

    def test_eye_sits_between_cell_sides(self):
        R, eye_of = rl.grid_with_eyes(2, 3, [(0, 0)])
        spec = rd.render_spec(R.lattice)
        e = eye_of[(0, 0)]
        c = next(c for c in rl.cells(R) if c.middles == (e,))
        xs = sorted(spec.coords[v][0] for v in (c.left, e, c.right))
        assert xs[1] == spec.coords[e][0]

    def test_y_is_height(self):
        L = catalog.s7().lattice
        spec = rd.render_spec(L)
        for v, (_, y) in spec.coords.items():
            assert y == L.height(v)

    def test_one_node_per_slot(self):
        for name in ("s7", "grid-3x3", "cube", "stacked-m3"):
            spec = rd.render_spec(catalog.get(name))
            assert len(set(spec.coords.values())) == len(spec.coords)


class TestEmitters:
    def test_svg_is_deterministic_and_complete(self):
        L = catalog.s7().lattice
        a = rd.to_svg(L)
        assert a == rd.to_svg(L)
        assert a.count("<circle") == 7
        assert a.count("<line") == 9
        assert a.count('class="steep"') == 1
        assert a.endswith("\n")

    def test_svg_labels_every_element(self):
        svg = rd.to_svg(catalog.get("grid-2x3"))
        for x in range(6):
            assert f">{x}<" in svg

    def test_dot_output(self):
        dot = rd.to_dot(catalog.s7().lattice)
        assert dot.startswith("graph")
        assert dot.count(" -- ") == 9
        assert "style=dashed" in dot  # the steep edge
        assert dot == rd.to_dot(catalog.s7().lattice)

    def test_dot_pins_positions(self):
        dot = rd.to_dot(catalog.get("m3"))
        assert 'pos="' in dot and '!"' in dot
