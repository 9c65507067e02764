import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from balance_lab import balance, dynamics, experiments, graphs
from balance_lab.balance import enumerate_triads, is_triad_wise_balanced
from balance_lab.dynamics import SihParams, SiohParams, SiohState, run_sih, run_sioh, sih_step
from balance_lab.experiments import count_triads
from balance_lab.graphs import (
    NODE_LIMIT,
    AppraisalMatrix,
    EdgeListError,
    UndirectedSkeleton,
    ego_network,
    format_edge_list,
    induced_subgraph,
    is_bilateral,
    is_sign_symmetric,
    parse_edge_list,
    read_edge_list,
    skeleton,
    write_edge_list,
    _bulk_matrix,
    _link_masks,
    _parse_lines,
)

from conftest import (
    GRAPH1_EDGES,
    MATRIX_KINDS,
    atlas_and_random_edge_lists,
    bilateral_by_pair_loop,
    induced_matrix_by_mask_remap,
    induced_skeleton_by_pair_filter,
    random_matrix,
    skeleton_by_pair_loop,
    varied_matrix,
)


@st.composite
def matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cells = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n * n, max_size=n * n)
    )
    rows = []
    for i in range(n):
        row = cells[i * n : (i + 1) * n]
        row[i] = 0
        rows.append(tuple(row))
    return AppraisalMatrix.from_rows(rows)


class TestConstruction:
    def test_single_directed_link(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        assert x.entry(1, 2) == 1
        assert x.entry(2, 1) == 0

    def test_empty_graph(self):
        x = AppraisalMatrix.from_edge_list(3, [])
        assert x.rows == ((0, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            AppraisalMatrix.from_edge_list(2, [(1, 1, 1)])

    def test_duplicate_ordered_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (1, 2, -1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AppraisalMatrix.from_edge_list(2, [(1, 3, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            AppraisalMatrix.from_edge_list(2, [(1, 2, 0)])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            AppraisalMatrix.from_rows([(1, 0), (0, 0)])

    def test_values_restricted_to_ternary(self):
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            AppraisalMatrix.from_rows([(0, 2), (0, 0)])
        # The first offending value in row order is the one reported.
        with pytest.raises(ValueError, match="got 3$"):
            AppraisalMatrix.from_rows([(0, 1, 3, 2), (-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)])
        # Entries are checked as given, never rounded into range first.
        for bad in (1.5, 0.7, -1.9, "1", float("nan")):
            with pytest.raises(ValueError) as caught:
                AppraisalMatrix(((0, bad), (0, 0)))
            assert str(caught.value) == f"appraisal values must be -1, 0 or 1, got {bad!r}"
            with pytest.raises(ValueError) as edited:
                AppraisalMatrix.zeros(2).with_entry(1, 2, bad)
            assert str(edited.value) == str(caught.value)
        # A value equal to -1, 0 or 1 reads as that value.
        for one in (1.0, True):
            x = AppraisalMatrix(((0, one, -one), (0, 0, 0), (0, 0, 0)))
            assert x == AppraisalMatrix(((0, 1, -1), (0, 0, 0), (0, 0, 0)))
            assert x.rows == ((0, 1, -1), (0, 0, 0), (0, 0, 0)) and x.entry(1, 2) == 1
            assert AppraisalMatrix.zeros(2).with_entry(1, 2, one).entry(1, 2) == 1

    @pytest.mark.parametrize("n", [NODE_LIMIT + 1, 10**20])
    def test_node_count_over_the_ceiling_is_refused_before_any_grid(self, n):
        message = f"node count {n} exceeds the ceiling of {NODE_LIMIT}"
        with pytest.raises(ValueError) as zeros:
            AppraisalMatrix.zeros(n)
        with pytest.raises(ValueError) as from_edge_list:
            AppraisalMatrix.from_edge_list(n, [(1, 2, 1)])
        assert str(zeros.value) == str(from_edge_list.value) == message

    def test_with_entry_is_functional(self):
        x = AppraisalMatrix.zeros(2)
        y = x.with_entry(1, 2, -1)
        assert x.entry(1, 2) == 0
        assert y.entry(1, 2) == -1


class TestSkeleton:
    def test_single_direction_gives_one_pair(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        assert skeleton(x).edges == frozenset({(1, 2)})

    def test_zero_matrix_gives_no_edges(self):
        assert skeleton(AppraisalMatrix.zeros(3)).edges == frozenset()

    def test_opposite_signs_still_one_pair(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, -1), (2, 1, 1)])
        assert skeleton(x).edges == frozenset({(1, 2)})

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_matches_pair_loop_oracle(self, kind):
        rng = random.Random(f"skeleton:{kind}")
        edges = 0
        for _ in range(150):
            x = varied_matrix(rng, kind)
            g = skeleton(x)
            assert g == skeleton_by_pair_loop(x), x
            edges += g.edge_count()
        assert (edges == 0) == (kind == "empty"), edges


class TestBilateral:
    def test_mutual_links_bilateral(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (2, 1, -1)])
        assert is_bilateral(x)
        assert not is_sign_symmetric(x)

    def test_half_pair_not_bilateral(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        assert not is_bilateral(x)

    def test_zero_matrix_vacuously_bilateral(self):
        assert is_bilateral(AppraisalMatrix.zeros(4))

    def test_one_way_enemy_is_not_sign_symmetric(self):
        x = AppraisalMatrix.from_edge_list(3, [(1, 2, 1), (2, 1, 1), (2, 3, -1)])
        assert not is_sign_symmetric(x) and not is_sign_symmetric(AppraisalMatrix(x.rows))

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_sign_symmetry_matches_the_transpose(self, kind):
        rng = random.Random(f"sign-symmetric:{kind}")
        verdicts = set()
        for _ in range(150):
            x = varied_matrix(rng, kind)
            if rng.random() < 0.5:
                # Mirror the upper triangle, so that symmetric matrices occur.
                rows = [list(r) for r in x.rows]
                for a in range(x.n):
                    for b in range(a):
                        rows[a][b] = rows[b][a]
                x = AppraisalMatrix.from_rows(rows, x.labels)
            verdict = is_sign_symmetric(x)
            assert verdict == (x.rows == tuple(zip(*x.rows))), x
            verdicts.add(verdict)
        assert True in verdicts and (False in verdicts or kind == "empty")

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_matches_pair_loop_oracle(self, kind):
        rng = random.Random(f"bilateral:{kind}")
        verdicts = set()
        for _ in range(150):
            x = varied_matrix(rng, kind)
            verdict = is_bilateral(x)
            assert verdict == bilateral_by_pair_loop(x), x
            verdicts.add(verdict)
        assert verdicts == ({False, True} if kind in ("independent", "one-way") else {True})

    @given(matrices())
    def test_bilateral_skeleton_edge_count(self, x):
        if is_bilateral(x):
            assert len(skeleton(x).edges) * 2 == x.nonzero_count()


def masks_by_row_scan(rows):
    """Oracle: (out, into) link masks and (plus, minus) sign masks, entry by entry."""
    n = len(rows)
    out = tuple(sum(1 << b for b in range(n) if rows[a][b]) for a in range(n))
    into = tuple(sum(1 << a for a in range(n) if rows[a][b]) for b in range(n))
    plus = tuple(sum(1 << b for b in range(n) if rows[a][b] > 0) for a in range(n))
    minus = tuple(sum(1 << b for b in range(n) if rows[a][b] < 0) for a in range(n))
    return (out, into), (plus, minus)


class TestLinkMaskView:
    """Each matrix transposes its sign masks once, and every view stays true."""

    def test_every_link_analysis_shares_one_build(self, monkeypatch):
        calls = []

        def counting(plus, minus):
            calls.append(len(plus))
            return real(plus, minus)

        real = graphs._link_masks
        monkeypatch.setattr(graphs, "_link_masks", counting)
        x = varied_matrix(random.Random("one-build"), "complete")
        skeleton(x), is_bilateral(x), enumerate_triads(x), is_triad_wise_balanced(x)
        count_triads(x)
        assert calls == [x.n]

    def test_a_run_and_its_triad_count_share_one_build(self, monkeypatch):
        # A study trial runs SIH from x0 and then counts x0's triads.  Every
        # module that holds a binding of `_link_masks` is counted.  The
        # generator hands over the link masks it drew, so neither the kernel
        # nor the count builds them: any build at all shows up as a call.
        calls = []

        def counting(plus, minus):
            calls.append(len(plus))
            return real(plus, minus)

        real = graphs._link_masks
        for module in (graphs, balance, experiments, dynamics):
            if hasattr(module, "_link_masks"):
                monkeypatch.setattr(module, "_link_masks", counting)
        x0 = experiments.gen_er_signed(experiments.ErParams(8, 0.5, 0.5), 3)
        record = run_sih(x0, SihParams(), 0)
        assert record.absorbed and record.steps > 0
        assert count_triads(x0) > 0
        assert calls == []

    def test_cache_does_not_change_equality_hash_or_repr(self):
        rng = random.Random("cache-identity")
        for kind in MATRIX_KINDS:
            for _ in range(30):
                x = varied_matrix(rng, kind)
                cold = AppraisalMatrix(x.rows, x.labels)
                assert (x._masks, x._signs) == masks_by_row_scan(x.rows)
                assert "_masks" in vars(x) and "_masks" not in vars(cold)
                assert x == cold and cold == x and hash(x) == hash(cold)
                assert repr(x) == repr(cold) and len({x, cold}) == 1

    def test_dynamics_and_copies_leave_every_cache_intact(self):
        rng = random.Random("cache-intact")
        matrices_seen = 0
        for case in range(40):
            x = varied_matrix(rng, rng.choice(("independent", "bilateral", "one-way", "complete")))
            if x.n < 2 or not x.nonzero_count():
                continue
            x._masks  # filled before anything runs on x
            y = tuple(rng.choice((-1, 1)) for _ in range(x.n))
            made = [x]
            made.append(run_sih(x, SihParams(), case, max_steps=40).final_x)
            made.append(run_sioh(SiohState(x, y), SiohParams(), case, max_steps=40).final_x)
            stepped = x
            for t in range(5):
                if not stepped.nonzero_count():
                    break
                stepped._masks
                stepped, _ = sih_step(stepped, SihParams(), random.Random(case), step=t)
                made.append(stepped)
            i, j = x.labels[0], x.labels[-1]
            edited = x.with_entry(i, j, -x.entry(i, j) or 1)
            made.append(edited)
            made.append(induced_subgraph(x, x.labels[: rng.randrange(1, x.n + 1)]))
            for m in made:
                m._masks
            made.append(run_sih(edited, SihParams(), case, max_steps=40).final_x)
            for m in made:
                assert (m._masks, m._signs) == masks_by_row_scan(m.rows), (case, m)
                assert m._incoming == _link_masks(*m._signs), (case, m)
            matrices_seen += len(made)
        assert matrices_seen > 200


class TestEgoNetwork:
    def test_two_components(self):
        x = AppraisalMatrix.from_edge_list(
            4, [(1, 2, 1), (2, 1, 1), (3, 4, -1), (4, 3, -1)]
        )
        members, sub = ego_network(x, 1)
        assert members == frozenset({1, 2})
        assert sub.labels == (1, 2)
        assert sub.entry(1, 2) == 1 and sub.entry(2, 1) == 1

    def test_isolated_node(self):
        members, sub = ego_network(AppraisalMatrix.zeros(3), 1)
        assert members == frozenset({1})
        assert sub.n == 1

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            ego_network(AppraisalMatrix.zeros(3), 4)

    def test_random_matches_naive_row_scan(self):
        # Independent oracle: re-scan row i of the raw matrix directly.
        rng = random.Random(42)
        for _ in range(50):
            x = random_matrix(rng, 5)
            members, sub = ego_network(x, 3)
            expected = {3} | {j for j in x.labels if x.entry(3, j) != 0}
            assert members == frozenset(expected)
            assert sub.labels == tuple(sorted(expected))
            for i in sub.labels:
                for j in sub.labels:
                    if i != j:
                        assert sub.entry(i, j) == x.entry(i, j)

    @given(matrices())
    def test_member_set_contains_self(self, x):
        for i in x.labels:
            members, _ = ego_network(x, i)
            assert i in members


class TestInducedSubgraph:
    def test_graph1_restriction_keeps_cycle_and_chords(self):
        g = UndirectedSkeleton.from_edges(7, GRAPH1_EDGES)
        sub = induced_subgraph(g, {3, 4, 5, 6, 7})
        for a, b in ((3, 4), (4, 5), (5, 6), (6, 7), (7, 3)):
            assert sub.has_edge(a, b)
        for chord in ((3, 6), (3, 5), (5, 7)):
            assert chord in sub.edges
        assert not any(1 in e or 2 in e for e in sub.edges)

    def test_full_node_set_is_identity(self):
        g = UndirectedSkeleton.from_edges(4, [(1, 2), (2, 3)])
        assert induced_subgraph(g, g.nodes) == g

    def test_singleton_is_edgeless(self):
        g = UndirectedSkeleton.from_edges(4, [(1, 2), (2, 3)])
        sub = induced_subgraph(g, {2})
        assert sub.nodes == (2,) and not sub.edges

    def test_out_of_range_member(self):
        g = UndirectedSkeleton.from_edges(3, [(1, 2)])
        with pytest.raises(ValueError):
            induced_subgraph(g, {1, 9})

    @given(matrices(), st.data())
    def test_commutes_with_skeleton(self, x, data):
        members = data.draw(
            st.sets(st.sampled_from(list(x.labels)), min_size=1), label="members"
        )
        left = skeleton(induced_subgraph(x, members))
        right = induced_subgraph(skeleton(x), members)
        assert left == right


class TestEdgeListFormat:
    def test_round_trip_is_byte_stable(self, tmp_path):
        rng = random.Random(7)
        for _ in range(20):
            x = random_matrix(rng, 6)
            text = format_edge_list(x)
            assert parse_edge_list(text) == x
            assert format_edge_list(parse_edge_list(text)) == text
        path = tmp_path / "g.el"
        write_edge_list(x, path)
        assert read_edge_list(path) == x

    def test_format_writes_the_header_and_the_sorted_links(self):
        rng = random.Random("format-oracle")
        drawn = [varied_matrix(rng, kind).rows for kind in MATRIX_KINDS for _ in range(30)]
        all_negative = [[-int(a != b) for b in range(5)] for a in range(5)]
        shown = {"one node": 0, "no links": 0, "all negative": 0}
        for rows in drawn + [((0,),), ((0, 0), (0, 0)), all_negative]:
            n = len(rows)
            links = [(a + 1, b + 1, v) for a, row in enumerate(rows) for b, v in enumerate(row) if v]
            expected = f"n {n}\n" + "".join(f"{i} {j} {s}\n" for i, j, s in sorted(links))
            assert format_edge_list(AppraisalMatrix(rows)) == expected
            shown["one node"] += n == 1
            shown["no links"] += not links
            shown["all negative"] += n > 1 and len(links) == n * (n - 1) and all(s < 0 for *_, s in links)
        assert min(shown.values()) >= 1, shown

    def test_comments_and_blanks_ignored(self):
        x = parse_edge_list("# a comment\n\nn 2\n# another\n1 2 -1\n")
        assert x.entry(1, 2) == -1

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("m 2\n")
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("n 2\n1 2\n")
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("n 2\n1 2 1\n1 2 -1\n")
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("n 2\n1 5 1\n")
        with pytest.raises(EdgeListError, match="sign"):
            parse_edge_list("n 2\n1 2 3\n")
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("# nothing\n")

    @pytest.mark.parametrize(
        "link", [(1, 5, 1), (0, 2, 1), (2, 2, 1), (1, 2, 0), (2, 1, 1)]
    )
    def test_parse_and_from_edge_list_refuse_a_link_alike(self, link):
        # One per-link check: the parser adds only the line number.
        entries = [(2, 1, -1), link]
        with pytest.raises(ValueError) as direct:
            AppraisalMatrix.from_edge_list(2, entries)
        text = "n 2\n" + "".join(f"{i} {j} {s}\n" for i, j, s in entries)
        with pytest.raises(EdgeListError) as parsed:
            parse_edge_list(text)
        assert str(parsed.value) == f"line 3: {direct.value}"
        assert parsed.value.line_no == 3

    def test_format_requires_contiguous_labels(self):
        x = AppraisalMatrix.from_edge_list(4, [(2, 4, 1)])
        sub = induced_subgraph(x, {2, 4})
        with pytest.raises(ValueError, match="1..n"):
            format_edge_list(sub)


# Edge-list text for the differential tests of the reader: headers, link lines
# and noise, valid and malformed, with non-canonical spellings of numbers.
_TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["+1", "01", "1_0", "-0", "+0", "00", "1.0", "x", "١", "#", "n"]),
)
_LINK = st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from((1, -1))).map(
    lambda link: "%d %d %d" % link
)
_LINE = st.one_of(
    _LINK,
    _LINK,
    _LINK,
    st.lists(_TOKENS, min_size=1, max_size=4).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "\t# x", "1\t2\t1", " 1 2 -1 ", "1 2 1 # tail"]),
)
_HEADER = st.one_of(
    st.integers(-1, 7).map(lambda n: f"n {n}"),
    st.sampled_from(
        ["n", "n 3 3", "m 3", "n +3", "n 03", "n 1_0", "N 3", "n 4097", "n 99999999999999999999",
         "  n\t5", "n x", "# n 3", "n ٣"]
    ),
)
_TEXT = st.builds(
    lambda before, header, body, newline, end: newline.join(before + header + body) + end,
    st.lists(st.sampled_from(["", "# c", "  "]), max_size=2),
    st.one_of(st.just([]), _HEADER.map(lambda header: [header])),
    st.lists(_LINE, max_size=10),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\r\n"]),
)
# One line added to a file as format_edge_list writes it.
_CHANGES = st.sampled_from(
    ["", "# comment", "1 1 1", "1 2 0", "0 1 1", "1 0 1", "-1 2 1", "2 -1 1", "9 1 1", "1 2",
     "1 2 1 1", "+1 2 1", "01 2 1", "1_0 2 1", "1\t2\t-1", "2 1 -1", "1 2 1", "n 3"]
)


def _parsed(parse, text):
    # The matrix's rows, or the message and line of the EdgeListError.
    try:
        return parse(text).rows
    except EdgeListError as exc:
        return str(exc), exc.line_no


def _by_line_loop(text):
    return _parse_lines(text.splitlines())


class TestBulkReader:
    """``parse_edge_list`` answers as the line-by-line loop does, on any text."""

    @given(_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_loop(self, text):
        assert _parsed(parse_edge_list, text) == _parsed(_by_line_loop, text)

    @given(st.integers(1, 7), st.randoms(use_true_random=False), _CHANGES, st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_line_loop_on_a_written_file_with_one_line_added(
        self, n, rng, change, newline
    ):
        lines = format_edge_list(random_matrix(rng, n, rng.choice((0.1, 0.5)))).splitlines()
        lines.insert(rng.randrange(len(lines) + 1), change)
        text = newline.join(lines) + newline
        assert _parsed(parse_edge_list, text) == _parsed(_by_line_loop, text)

    def test_takes_every_file_format_edge_list_writes(self):
        rng = random.Random(11)
        for n in range(1, 14):
            x = random_matrix(rng, n, rng.choice((0.0, 0.2, 0.7)))
            bulk = _bulk_matrix(("# written\n\n" + format_edge_list(x)).splitlines())
            assert bulk == x and bulk.rows == x.rows

    @pytest.mark.parametrize(
        "text",
        [
            "n 2\n+1 2 1\n",
            "n 2\n01 2 1\n",
            "n 2\n1 2 +1\n",
            "n 02\n1 2 1\n",
            "n 2\n1 2 1\n\n2 1 -1\n",
            "n 2\n1 2 1\n# late comment\n",
            "n 1_0\n1 2 1\n",
            "n 3\n1 0 1\n",
            # Six valid tokens, but not three to a line.
            "n 3\n1 2\n1 3 1 1\n",
        ],
    )
    def test_a_file_spelled_otherwise_goes_to_the_line_loop(self, text):
        assert _bulk_matrix(text.splitlines()) is None
        assert _parsed(parse_edge_list, text) == _parsed(_by_line_loop, text)


def _edge_list_corpus():
    """(text, whether the bulk reader takes it) for files of 1 to 64 nodes:
    as written, with leading comments, with the links shuffled, with tabs
    between the fields, and spelled in ways only the line loop reads (a sign
    with '+', a leading zero, a late comment, a blank line between links)."""
    rng = random.Random("edge-list-corpus")
    for n in list(range(1, 14)) + [31, 64]:
        for p in (0.0, 0.2, 0.6):
            text = format_edge_list(random_matrix(rng, n, p))
            header, *links = text.splitlines()
            yield text, True
            yield "# written\n\n" + text, True
            rng.shuffle(links)
            yield "\n".join([header, *links]) + "\n", True
            if links:
                yield "\n".join([header, *(line.replace(" ", "\t") for line in links)]) + "\n", True
                odd = list(links)
                k = rng.randrange(len(odd))
                i, j, sign = odd[k].split()
                odd[k] = f"{i} {j} +{sign}" if sign == "1" else f"0{i} {j} {sign}"
                yield "\n".join([header, *odd]) + "\n", False
                yield "\n".join([header, *links, "# late comment"]) + "\n", False
                yield "\n".join([header, links[0], "", *links[1:]]) + "\n", False


class TestSignMaskStorage:
    """Matrices keep sign masks; every way to build one gives the same value."""

    def test_bulk_and_line_parsers_build_the_same_matrix(self):
        taken = {True: 0, False: 0}
        for text, bulk in _edge_list_corpus():
            lines = text.splitlines()
            assert (_bulk_matrix(lines) is not None) == bulk, text
            fast, slow = parse_edge_list(text), _parse_lines(lines)
            assert fast == slow and slow == fast and hash(fast) == hash(slow)
            assert list(fast.nonzero_links()) == list(slow.nonzero_links())
            assert fast.rows == slow.rows and repr(fast) == repr(slow)
            for x in (fast, slow):
                copy = pickle.loads(pickle.dumps(x))
                assert copy == fast and hash(copy) == hash(fast) and copy.rows == fast.rows
            assert format_edge_list(fast) == format_edge_list(_parse_lines(text.splitlines()))
            taken[bulk] += 1
        assert min(taken.values()) > 75, taken

    def test_rows_built_and_mask_built_matrices_are_equal(self):
        rng = random.Random("rows-and-masks")
        for kind in MATRIX_KINDS:
            for _ in range(40):
                x = varied_matrix(rng, kind)
                _, (plus, minus) = masks_by_row_scan(x.rows)
                from_masks = AppraisalMatrix._make(x.labels, (plus, minus))
                from_rows = AppraisalMatrix(x.rows, x.labels)
                assert "rows" not in vars(from_masks) and "rows" not in vars(from_rows)
                assert from_rows == from_masks and from_masks == from_rows
                assert hash(from_rows) == hash(from_masks) and len({from_rows, from_masks}) == 1
                assert from_masks.rows == x.rows and repr(from_masks) == repr(x)
                assert list(from_masks.nonzero_links()) == [
                    (i, j, x.rows[a][b])
                    for a, i in enumerate(x.labels)
                    for b, j in enumerate(x.labels)
                    if x.rows[a][b]
                ]
                assert from_masks.nonzero_count() == sum(v != 0 for r in x.rows for v in r)
                assert from_masks.negative_count() == sum(v < 0 for r in x.rows for v in r)
                if x.labels == tuple(range(1, x.n + 1)):
                    assert AppraisalMatrix.from_edge_list(x.n, x.nonzero_links()) == x

    def test_single_entry_changes_match_the_rows(self):
        rng = random.Random("with-entry")
        for _ in range(200):
            x = varied_matrix(rng, rng.choice(MATRIX_KINDS))
            if x.n < 2:
                continue
            i, j = rng.sample(x.labels, 2)
            value = rng.choice((-1, 0, 1))
            changed = x.with_entry(i, j, value)
            # The edit sets or clears mask bits; neither matrix builds its rows view.
            assert "rows" not in vars(x) and "rows" not in vars(changed)
            rows = [list(r) for r in x.rows]
            rows[x.index_of(i)][x.index_of(j)] = value
            assert changed == AppraisalMatrix.from_rows(rows, x.labels)
            assert changed.entry(i, j) == value and changed.rows == tuple(map(tuple, rows))

    def test_with_entry_at_the_node_limit_builds_no_rows_view(self):
        n = NODE_LIMIT
        x = AppraisalMatrix.from_edge_list(n, [(1, n, -1), (n, 1, 1), (7, 9, 1)])
        edited = x.with_entry(n, 1, -1).with_entry(7, 9, 0).with_entry(2, 3, 1)
        assert "rows" not in vars(x) and "rows" not in vars(edited)
        assert edited == AppraisalMatrix.from_edge_list(n, [(1, n, -1), (n, 1, -1), (2, 3, 1)])


def masks_by_pair_loop(nodes, pairs):
    """Neighbour masks of ``pairs`` on the sorted ``nodes``, one pair at a time."""
    nodes = sorted(nodes)
    masks = [0] * len(nodes)
    for i, j in pairs:
        a, b = nodes.index(i), nodes.index(j)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return tuple(nodes), tuple(masks)


def assert_same_skeleton(made, checked, pairs):
    """``made`` and ``checked`` agree in every view, and both hold exactly ``pairs``."""
    expected = frozenset((i, j) if i < j else (j, i) for i, j in pairs)
    assert made == checked and checked == made and not made != checked
    assert hash(made) == hash(checked) and len({made, checked}) == 1
    assert set(vars(made)) == set(vars(checked)) == {"nodes", "_masks"}
    assert made.edge_count() == checked.edge_count() == len(expected)
    absent = max(checked.nodes, default=0) + 1
    ids = (*checked.nodes, absent)
    for i in ids:
        for j in ids:
            want = (min(i, j), max(i, j)) in expected
            assert made.has_edge(i, j) is checked.has_edge(i, j) is want, (i, j)
    for i in checked.nodes:
        want = tuple(sorted({j for e in expected if i in e for j in e} - {i}))
        assert made.neighbors(i) == checked.neighbors(i) == want
    assert "edges" not in vars(made) and "edges" not in vars(checked)
    assert made.edges == checked.edges == expected and repr(made) == repr(checked)
    for g in (made, checked):
        copy = pickle.loads(pickle.dumps(g))
        assert copy == checked and hash(copy) == hash(checked) and copy.edges == expected


def _atlas_sample():
    """Every seventh graph of the atlas corpus, non-empty ones only."""
    return [
        UndirectedSkeleton.from_edges(nodes, pairs)
        for k, (nodes, pairs) in enumerate(atlas_and_random_edge_lists())
        if k % 7 == 0 and nodes
    ]


class TestSkeletonMaskStorage:
    """Skeletons store their node ids and neighbour masks only; ``edges`` is a view."""

    def test_mask_built_and_checked_skeletons_agree_on_the_atlas(self):
        last_on, unequal = {}, 0
        for nodes, pairs in atlas_and_random_edge_lists():
            checked = UndirectedSkeleton.from_edges(nodes, pairs)
            made = UndirectedSkeleton._make(*masks_by_pair_loop(nodes, pairs))
            assert_same_skeleton(made, checked, pairs)
            # The atlas holds many graphs on the same nodes: they must differ.
            before = last_on.get(tuple(nodes))
            if before is not None and before.edges != made.edges:
                assert made != before and before != made and not made == before
                unequal += 1
            last_on[tuple(nodes)] = made
            if nodes:
                shifted = UndirectedSkeleton._make(tuple(v + 1 for v in made.nodes), made._masks)
                assert shifted != made and made != shifted
        assert unequal > 1000, unequal

    def test_skeleton_of_a_matrix_agrees_with_the_pair_loop(self):
        rng = random.Random("skeleton-masks")
        for kind in MATRIX_KINDS:
            for _ in range(40):
                x = varied_matrix(rng, kind)
                pairs = [
                    (i, j) for a, i in enumerate(x.labels) for b, j in enumerate(x.labels)
                    if a < b and (x.rows[a][b] or x.rows[b][a])
                ]
                oracle = skeleton_by_pair_loop(x)
                assert_same_skeleton(skeleton(x), oracle, pairs)

    def test_induced_subgraph_matches_its_oracles_on_both_kinds(self):
        rng = random.Random("induced-oracles")
        refused = 0
        cases = [(g, induced_skeleton_by_pair_filter) for g in _atlas_sample()]
        cases += [
            (varied_matrix(rng, kind), induced_matrix_by_mask_remap)
            for kind in MATRIX_KINDS for _ in range(30)
        ]
        for g, oracle in cases:
            for _ in range(4):
                members = set(rng.sample(g.nodes, rng.randint(0, g.n)))
                if rng.random() < 0.2:
                    members |= {max(g.nodes) + rng.randint(1, 3), 0}
                try:
                    want = oracle(g, members)
                except ValueError as exc:
                    with pytest.raises(ValueError) as caught:
                        induced_subgraph(g, members)
                    assert str(caught.value) == str(exc)
                    refused += 1
                    continue
                got = induced_subgraph(g, members)
                assert type(got) is type(g) and got == want and hash(got) == hash(want)
                assert got.nodes == want.nodes == tuple(sorted(members))
                assert "edges" not in vars(got) and "rows" not in vars(got)
                if isinstance(g, AppraisalMatrix):
                    assert got.rows == tuple(
                        tuple(g.entry(i, j) if i != j else 0 for j in got.labels) for i in got.labels
                    )
                else:
                    assert got.edges == want.edges
        assert refused > 20, refused

    def test_dynamics_results_store_masks_that_match_their_rows(self):
        # A result matrix stores sign masks, as every unchecked matrix does;
        # its rows view is filled with the kernel's rows.
        rng = random.Random("dynamics-results")
        results = 0
        for case in range(30):
            x0 = varied_matrix(rng, rng.choice(("bilateral", "one-way", "complete")))
            if x0.n < 2 or not x0.nonzero_count():
                continue
            y0 = tuple(rng.choice((-1, 1)) for _ in range(x0.n))
            made = [
                run_sih(x0, SihParams(), case, max_steps=60).final_x,
                run_sioh(SiohState(x0, y0), SiohParams(), case, max_steps=60).final_x,
                sih_step(x0, SihParams(), random.Random(case), step=0)[0],
            ]
            for x in made:
                assert {"labels", "_signs"} <= set(vars(x))
                assert x._signs == masks_by_row_scan(x.rows)[1]
                checked = AppraisalMatrix(x.rows, x.labels)
                assert x == checked and hash(x) == hash(checked) and repr(x) == repr(checked)
                results += 1
        assert results > 40, results

    def test_matrix_made_from_masks_only(self):
        x = AppraisalMatrix._make((2, 5), ((2, 0), (0, 1)))
        assert set(vars(x)) == {"labels", "_signs"}
        assert x.rows == ((0, 1), (-1, 0)) and x == AppraisalMatrix(((0, 1), (-1, 0)), (2, 5))
        with pytest.raises(TypeError):
            AppraisalMatrix._make((1, 2), rows=((0, 1), (1, 0)))


@pytest.mark.parametrize("count", [-3, 0, NODE_LIMIT + 1, 10**20])
def test_from_edges_refuses_a_node_count_outside_the_ceiling(count):
    with pytest.raises(ValueError) as caught:
        UndirectedSkeleton.from_edges(count, [])
    assert type(caught.value) is ValueError
    if count < 1:
        assert str(caught.value) == "node count must be positive"
    else:
        assert str(caught.value) == f"node count {count} exceeds the ceiling of {NODE_LIMIT}"


def test_from_edges_takes_explicit_ids_beyond_the_ceiling():
    g = UndirectedSkeleton.from_edges(range(1, NODE_LIMIT + 2), [(1, NODE_LIMIT + 1)])
    assert g.n == NODE_LIMIT + 1 and g.edge_count() == 1 and g.has_edge(NODE_LIMIT + 1, 1)
    assert UndirectedSkeleton.from_edges(NODE_LIMIT, []).n == NODE_LIMIT


class TestEntryConversion:
    def test_list_rows_and_bool_entries_become_tuples_of_ints(self):
        # Whatever the row and entry types, the ``rows`` view holds tuples of ints.
        for rows in ([[0, 1], [-1, 0]], ((0, True), (-1, False)), [(0, 1), (-1, 0)]):
            x = AppraisalMatrix(rows)
            assert x.rows == ((0, 1), (-1, 0)), rows
            assert type(x.rows) is tuple and all(type(r) is tuple for r in x.rows)
            assert {type(v) for r in x.rows for v in r} == {int}, rows
            assert x == AppraisalMatrix(((0, 1), (-1, 0)))


_SKELETON = UndirectedSkeleton.from_edges(3, [(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: AppraisalMatrix([[0, 2], [0, 0]]), ValueError,
         "appraisal values must be -1, 0 or 1, got 2"),
        (lambda: AppraisalMatrix(((0, 0), (0, 0)), (1,)), ValueError,
         "labels length must match matrix size"),
        (lambda: AppraisalMatrix(((0, 0), (0, 0)), (2, 2)), ValueError,
         "labels must be strictly increasing positive integers"),
        (lambda: AppraisalMatrix(((0, 0), (0, 0)), (3, 1)), ValueError,
         "labels must be strictly increasing positive integers"),
        (lambda: AppraisalMatrix(((0, 0), (0, 0)), (0, 1)), ValueError,
         "labels must be strictly increasing positive integers"),
        (lambda: AppraisalMatrix(((0, 0), (0, 0)), (1.5, 2.7)), ValueError,
         "labels must be strictly increasing positive integers"),
        (lambda: AppraisalMatrix(((0, 0), (0,))), ValueError, "appraisal matrix must be square"),
        (lambda: AppraisalMatrix.from_edge_list(2, [(1.0, 2, 1)]), ValueError,
         "node id out of range: (1.0, 2) with n=2"),
        (lambda: AppraisalMatrix.from_edge_list(2, [(1, "2", 1)]), ValueError,
         "node id out of range: (1, '2') with n=2"),
        (lambda: AppraisalMatrix.zeros(3).with_entry(2, 2, 1), ValueError,
         "diagonal entries are fixed at 0"),
        (lambda: AppraisalMatrix.zeros(3).with_entry(2, 5, 1), ValueError, "node 5 not in matrix"),
        (lambda: AppraisalMatrix.zeros(3).with_entry(2, 3, 2), ValueError,
         "appraisal values must be -1, 0 or 1, got 2"),
        (lambda: UndirectedSkeleton((0, 1, 2)), ValueError, "node ids must be positive integers"),
        (lambda: UndirectedSkeleton((1.5, 2.5)), ValueError, "node ids must be positive integers"),
        (lambda: UndirectedSkeleton((1, 2), frozenset({(2, 2)})), ValueError,
         "self-pair not allowed: (2, 2)"),
        (lambda: UndirectedSkeleton((1, 2), frozenset({(1, 3)})), ValueError,
         "edge (1, 3) has an endpoint outside the node set"),
        (lambda: _SKELETON.neighbors(9), ValueError, "node 9 not in graph"),
        (lambda: induced_subgraph(AppraisalMatrix.zeros(3), [1, 5, 4]), ValueError,
         "nodes not in matrix: [4, 5]"),
        (lambda: induced_subgraph(_SKELETON, [2, 7]), ValueError, "nodes not in graph: [7]"),
        (lambda: induced_subgraph([[0, 1], [1, 0]], [1]), TypeError, "unsupported graph type: list"),
        (lambda: parse_edge_list("# header next\nn x\n1 2 1\n"), EdgeListError,
         "line 2: bad node count 'x'"),
        (lambda: parse_edge_list("n 2\n1 x 1\n"), EdgeListError,
         "line 2: non-integer field in '1 x 1'"),
    ],
    ids=[
        "matrix-list-rows-bad-value", "matrix-label-count", "matrix-repeated-label",
        "matrix-decreasing-labels", "matrix-zero-label", "matrix-float-labels", "matrix-non-square",
        "from-edge-list-float-id", "from-edge-list-str-id",
        "with-entry-diagonal", "with-entry-unknown-node", "with-entry-value",
        "skeleton-zero-id", "skeleton-float-ids", "skeleton-self-pair",
        "skeleton-outside-endpoint", "skeleton-unknown-neighbors", "induced-matrix-missing",
        "induced-skeleton-missing", "induced-other-type", "edge-list-bad-node-count",
        "edge-list-non-integer-field",
    ],
)
def test_refusal_names_its_fault(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message
