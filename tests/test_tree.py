import math
from fractions import Fraction

import numpy as np
import pytest

from naenum import (DebugTree, Formula, TreeNode, brute_force, build_debug_tree,
                    check_invariants, export_lines, maj, negation_closure,
                    psi_exact, random_negation_closed)
from naenum.selection import FREE, ONEMARK, TWOMARK
from naenum.tree import _AFTER, SurvivalKernel, row_counts
from oracles import (child_nodes, leaves, path_ids, psi_of_node, q_of,
                     satisfies, shoot_stats, sigma_edge, simplify)
from reference_tree import effective_width, marked_child_count, mass


def test_single_clause_tree():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    tree = build_debug_tree(f, 1)
    root = tree.root
    assert [tree.nodes[c].label for c in root.children] == [1, 2, 3]
    assert all(tree.nodes[c].markers == () for c in root.children)
    assert all(tree.nodes[c].leaf_kind == "viable" for c in root.children)
    assert all(satisfies(f, q_of(tree, tree.nodes[c])) for c in root.children)
    assert mass(tree, root) == 3
    st = shoot_stats(tree, root, tree.nodes[root.children[0]])
    assert st.weight == 0 and st.defect == 0


def test_marking_counts_on_maj4():
    f = negation_closure(maj(4, 3))
    tree = build_debug_tree(f, 2)
    # the root's labels 1,2,3 mark any same-labeled edge one level down
    marks = sorted(tree.nodes[c].marks
                   for u in child_nodes(tree, tree.root)
                   for c in u.children)
    assert marks.count(1) == 6 and marks.count(0) == 3


def test_falsifying_edges_match_unit_clauses(corpus500):
    seen = 0
    for f, rep in corpus500[:60]:
        tree = build_debug_tree(f, rep.tau)
        for u in tree.nodes:
            if u.leaf_kind == "falsified" and u.parent is not None:
                parent_q = q_of(tree, tree.nodes[u.parent])
                residual = simplify(f, parent_q)
                assert (-u.label,) in residual.clauses
                seen += 1
    assert seen > 0


def test_defect_counts_width_two_expansions():
    # mixed-sign clauses yield width-2 positive residuals: two children,
    # defect one, still within the shoot-weight floor
    f = negation_closure(Formula.of(9, [
        (7, 8, 9), (3, 5, 6), (1, 3, 5), (1, 4, 8), (5, 7, -9), (6, 9, -8)]))
    rep = brute_force(f)
    assert rep.tau == 3
    tree = build_debug_tree(f, rep.tau)
    defects = [3 - len(u.children) for u in tree.internal()]
    assert any(d >= 1 for d in defects)
    assert check_invariants(tree) == []
    for leaf in leaves(tree):
        if leaf.depth == tree.t:
            st = shoot_stats(tree, tree.root, leaf)
            assert st.weight >= 3 * tree.t - tree.n


def test_effective_width_and_mass_on_twomark_instance():
    f = random_negation_closed(10, 11, seed=9)
    rep = brute_force(f)
    tree = build_debug_tree(f, rep.tau)
    two = [u for u in tree.nodes if u.stage == TWOMARK and u.children]
    assert two, "instance chosen to exercise the twomark stage"
    for u in two:
        assert effective_width(tree, u) <= 2
        assert any(tree.nodes[c].falsifying and tree.nodes[c].marks > 0
                   for c in u.children)
        assert mass(tree, u) <= Fraction(3, 2)
        assert marked_child_count(tree, u) >= 2


def test_mass_bound_by_marked_count(corpus500):
    for f, rep in corpus500[:40]:
        tree = build_debug_tree(f, rep.tau)
        for u in tree.internal():
            j = marked_child_count(tree, u)
            assert mass(tree, u) <= Fraction(6 - j, 2)


def test_psi_additivity(corpus500):
    for f, rep in corpus500[:25]:
        tree = build_debug_tree(f, rep.tau)
        assert psi_of_node(tree, tree.root) == psi_exact(tree)


def test_sigma_edge_values():
    f = negation_closure(maj(4, 3))
    tree = build_debug_tree(f, 2)
    for u in tree.nodes[1:]:
        expect = Fraction(0) if u.falsifying else Fraction(1, 2 ** u.marks)
        assert sigma_edge(u) == expect


def test_export_lines_shape():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    tree = build_debug_tree(f, 1)
    lines = export_lines(tree)
    assert len(lines) == len(tree.nodes)
    assert lines[0].startswith("0 - 0")
    assert all(len(line.split()) == 5 for line in lines)


def test_check_invariants_clean_on_corpus(corpus500):
    for f, rep in corpus500[:60]:
        tree = build_debug_tree(f, rep.tau)
        assert check_invariants(tree) == []


def test_check_invariants_flags_tampering():
    f = negation_closure(maj(4, 3))
    tree = build_debug_tree(f, 2)
    # erase the marks below one depth-1 node: a width-3 expansion past the
    # disjoint prefix may never be unmarked
    victim = child_nodes(tree, tree.root)[0]
    for c in child_nodes(tree, victim):
        c.markers = ()
    flagged = check_invariants(tree)
    assert any("unmarked" in v for v in flagged)


def test_check_invariants_flags_mass_above_the_marked_ceiling():
    # j marked children of three carry at most (6 - j)/2; a fourth unmarked
    # child lifts the unmarked root of maj(4,3) to mass 4
    tree = build_debug_tree(negation_closure(maj(4, 3)), 2)
    tree.root.children.append(tree.root.children[0])
    assert "node 0: 0-marked mass 4 > 3" in check_invariants(tree)


def _controlled_tree():
    f = random_negation_closed(10, 11, seed=9)
    tree = build_debug_tree(f, brute_force(f).tau)
    assert tree.route == "controlled"
    return tree


def _twomark_flags(edit) -> list[str]:
    """Twomark-shape violations after ``edit`` changes the children of the
    first twomark node: two marked falsifying edges and one unmarked live one."""
    tree = _controlled_tree()
    u = next(u for u in tree.nodes if u.stage == TWOMARK and u.children)
    kids = child_nodes(tree, u)
    assert sorted((k.falsifying, k.marks) for k in kids) == [(False, 0), (True, 1), (True, 1)]
    edit(kids)
    return [v.split(": ", 1)[1] for v in check_invariants(tree)
            if v.startswith(f"node {u.id}: twomark")]


def test_check_invariants_flags_twomark_shape():
    def unmark_falsifying(kids):
        for k in kids:
            if k.falsifying:
                k.markers = ()

    def unfalsify_all(kids):
        for k in kids:
            k.falsifying = False

    def free_one_falsifying_edge(kids):
        k = next(k for k in kids if k.falsifying)
        k.falsifying, k.markers = False, ()

    assert _twomark_flags(unmark_falsifying) == [
        "twomark node lacks a marked falsifying edge"]
    assert "twomark node effective width > 2" in _twomark_flags(unfalsify_all)
    assert _twomark_flags(free_one_falsifying_edge) == ["twomark node mass 2 > 3/2"]


def test_check_invariants_flags_the_marks_rule():
    # nodes with the same number of markings appear consecutively in the
    # controlled stage: one marked child edge per onemark node, two per
    # twomark node, so the count never falls along a path
    f = random_negation_closed(11, 11, seed=8)
    tree = build_debug_tree(f, brute_force(f).tau)
    assert check_invariants(tree) == []
    # a onemark node u whose unmarked child k is a onemark node too
    u, k = next((u, k) for u in tree.nodes if u.stage == ONEMARK
                for k in child_nodes(tree, u) if not k.markers and k.stage == ONEMARK)
    assert marked_child_count(tree, u) == marked_child_count(tree, k) == 1
    k.markers = (u.id,)
    flagged = check_invariants(tree)
    assert f"node {u.id}: 2 marked child edges at a onemark node" in flagged
    assert f"node {k.id}: marked child edges fall from 2 to 1" in flagged
    assert not any(v.startswith(f"node {k.id}: 1 marked") for v in flagged)

    tree = _controlled_tree()
    w = next(w for w in tree.nodes if w.stage == TWOMARK and w.children)
    next(c for c in child_nodes(tree, w) if c.markers).markers = ()
    assert f"node {w.id}: 1 marked child edges at a twomark node" in check_invariants(tree)


def test_check_invariants_flags_once_marked_free_mass():
    tree = _controlled_tree()
    u = next(u for u in tree.nodes if u.stage == FREE and len(u.children) == 3
             and all(k.marks == 1 and not k.falsifying for k in child_nodes(tree, u)))
    for k in child_nodes(tree, u)[1:]:
        k.markers = ()
    assert f"node {u.id}: once-marked free node mass 5/2 > 9/4" in check_invariants(tree)


def test_check_invariants_flags_heavy_budget():
    tree = _controlled_tree()
    for u in tree.nodes:
        if u.heavy_budget is not None:
            u.heavy_budget = 0
    assert any(v.endswith("heavy count 1 exceeds budget 0")
               for v in check_invariants(tree))


def test_check_invariants_flags_shared_marker():
    tree = build_debug_tree(negation_closure(maj(8, 3)), 4)
    k = next(k for k in tree.nodes[1:]
             if not k.falsifying and tree.nodes[k.parent].markers)
    k.markers = tree.nodes[k.parent].markers
    assert any(v.startswith(f"edge into {k.id}: marker ") and "shared" in v
               for v in check_invariants(tree))


@pytest.mark.parametrize("f, t", [
    (negation_closure(maj(8, 3)), 4),
    # width-2 expansions: the shoot weight includes a defect
    (negation_closure(Formula.of(9, [(7, 8, 9), (3, 5, 6), (1, 3, 5), (1, 4, 8),
                                     (5, 7, -9), (6, 9, -8)])), 3)])
def test_check_invariants_reports_light_shoots_last_in_leaf_order(f, t):
    tree = build_debug_tree(f, t)
    # raise the weight floor 3t - n to t and erase every mark below the
    # root's first child: some depth-t shoots fall under the floor
    tree.n = 2 * t
    victim = child_nodes(tree, tree.root)[0]
    for u in tree.nodes:
        if victim.id in path_ids(tree, u)[1:-1]:
            u.markers = ()
    floor = 3 * tree.t - tree.n
    light = [f"leaf {leaf.id}: shoot weight {st.weight} < {floor}"
             for leaf in leaves(tree) if leaf.depth == tree.t
             and (st := shoot_stats(tree, tree.root, leaf)).weight < floor]
    flagged = check_invariants(tree)
    assert light and flagged[len(flagged) - len(light):] == light
    assert not any("shoot weight" in v for v in flagged[:len(flagged) - len(light)])


def _star(kids, stage=None, route="free") -> DebugTree:
    """A root of ``stage`` over one depth-1 leaf per (mark count, falsifying)
    pair in ``kids``; the markers are ids outside the tree.  t0 = 1, and the
    shoot floor 3t - n is far below every shoot."""
    nodes = [TreeNode(0, 0, None, None, (), False, stage, list(range(1, len(kids) + 1)))]
    for i, (m, fals) in enumerate(kids, 1):
        nodes.append(TreeNode(i, 1, 0, i, tuple(range(100, 100 + m)), fals,
                              leaf_kind="falsified" if fals else "viable"))
    return DebugTree(n=10, t=1, route=route, t0=1, nodes=nodes)


def _mass_of(kids) -> Fraction:
    return sum((Fraction(1, 2 ** m) for m, fals in kids if not fals), Fraction(0))


LIVE, DEAD = False, True


def test_mass_on_hand_built_nodes():
    for kids, want in (([(0, LIVE), (1, LIVE), (1, LIVE)], 2),
                       ([(0, LIVE)] * 3, 3),
                       ([(1, LIVE), (2, LIVE), (0, DEAD)], Fraction(3, 4))):
        tree = _star(kids)
        assert mass(tree, tree.root) == want, kids


@pytest.mark.parametrize("j, at, above", [
    (0, [(0, LIVE)] * 3, [(0, LIVE)] * 4),
    (1, [(0, LIVE), (0, LIVE), (1, LIVE)], [(0, LIVE)] * 3 + [(61, LIVE)]),
    (2, [(0, LIVE), (0, LIVE), (61, DEAD), (1, DEAD)],
     [(0, LIVE), (0, LIVE), (61, LIVE), (1, DEAD)]),
    (3, [(0, LIVE), (1, LIVE), (61, DEAD), (1, DEAD)],
     [(0, LIVE), (1, LIVE), (61, LIVE), (1, DEAD)])])
def test_marked_mass_ceiling_at_its_boundary(j, at, above):
    # a mass of exactly (6 - j)/2 passes, and the next one above it does not,
    # also when a child carries 61 marks
    assert _mass_of(at) == Fraction(6 - j, 2) < _mass_of(above)
    assert check_invariants(_star(at)) == []
    assert check_invariants(_star(above)) == [
        f"node 0: {j}-marked mass {_mass_of(above)} > {Fraction(6 - j, 2)}"]


def test_twomark_mass_ceiling_at_its_boundary():
    for at in ([(0, LIVE), (1, LIVE), (1, DEAD)], [(0, LIVE), (1, LIVE), (61, DEAD)]):
        assert _mass_of(at) == Fraction(3, 2)
        assert check_invariants(_star(at, TWOMARK)) == []
    above = [(0, LIVE), (1, LIVE), (61, LIVE), (1, DEAD)]
    assert (f"node 0: twomark node mass {Fraction(3, 2) + Fraction(1, 2 ** 61)} > 3/2"
            in check_invariants(_star(above, TWOMARK)))


def test_once_marked_free_mass_ceiling_at_its_boundary():
    # with one marked child of three, 9/4 and 5/2 are adjacent masses
    at = [(0, LIVE), (0, LIVE), (2, LIVE)]
    assert check_invariants(_star(at, FREE, "controlled")) == []
    above = [(0, LIVE), (0, LIVE), (1, LIVE)]
    assert check_invariants(_star(above, FREE, "controlled")) == [
        "node 0: once-marked free node mass 5/2 > 9/4"]
    # the ceiling holds on the controlled route only
    assert check_invariants(_star(above, FREE)) == []


def test_shared_marker_message_names_the_smallest():
    tree = _star([(2, LIVE)])
    tree.nodes[1].leaf_kind, tree.nodes[1].children = None, [2]
    tree.nodes.append(TreeNode(2, 2, 1, 1, (101, 100), False, leaf_kind="viable"))
    assert check_invariants(tree) == [
        "edge into 2: marker 100 shared with an ancestor edge but child not falsified"]


def test_psi_exact_without_viable_leaves():
    tree = _star([(0, DEAD), (1, DEAD)])
    assert psi_exact(tree) == 0 and type(psi_exact(tree)) is Fraction


def test_psi_exact_with_more_than_sixty_marks():
    # marks add up along the path: 30 on an edge and 40 below it
    tree = _star([(0, LIVE), (61, LIVE), (30, LIVE), (2, DEAD)])
    assert psi_exact(tree) == 1 + Fraction(1, 2 ** 61) + Fraction(1, 2 ** 30)
    mid = tree.nodes[3]
    mid.leaf_kind, mid.children = None, [5, 6]
    tree.nodes += [TreeNode(5, 2, 3, 1, tuple(range(200, 240)), False, leaf_kind="viable"),
                   TreeNode(6, 2, 3, 2, (), True, leaf_kind="falsified")]
    assert psi_exact(tree) == 1 + Fraction(1, 2 ** 61) + Fraction(1, 2 ** 70)


def test_after_bits_repeat_with_period_k_factorial():
    for k, table in _AFTER.items():
        period = math.factorial(k)
        for row in table:
            for bits in row:
                assert bits < 1 << 6
                assert all(bits >> c & 1 == bits >> (c % period) & 1
                           for c in range(6)), (k, bits)


def test_survival_kernel_reads_codes_mod_k_factorial():
    # two- and three-child groups both carry marker constraints here, and a
    # code c in [0, 6) must act as c mod k! on each; 203 columns leave
    # padding bits in the last packed byte
    f = negation_closure(Formula.of(7, [(6, 4), (7, 3), (5, 3), (5, 4), (5, 6, 2)]))
    kernel = SurvivalKernel(build_debug_tree(f, brute_force(f).tau))
    constrained = kernel.orders[kernel.con_group[kernel.con_bits != 0xFF]]
    assert {2, 6} <= set(constrained.tolist())
    codes = np.random.default_rng(3).integers(0, 6, size=(len(kernel.orders), 203),
                                              dtype=np.uint8)
    got = kernel.run(codes)
    want = kernel.run(codes % kernel.orders[:, None])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert row_counts(got[1]).sum() > 0
