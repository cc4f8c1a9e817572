import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from cwemap.errors import FormatError, ValidationError
from cwemap.ingest import (
    CveRecord,
    CweNode,
    Taxonomy,
    build_taxonomy,
    import_nvd_feed,
    load_cve_corpus,
    load_stopwords,
    load_synonyms,
    load_taxonomy,
    normalize_cwe_id,
    paths_to_root,
    save_taxonomy,
    write_cve_corpus,
)


class TestCveRecord:
    def test_valid_record(self):
        rec = CveRecord(
            id="CVE-2004-0366",
            description="SQL injection vulnerability in the libpam-pgsql library",
            cwe_labels=frozenset({"CWE-89"}),
        )
        assert rec.cwe_labels == frozenset({"CWE-89"})

    def test_bad_id_rejected(self):
        with pytest.raises(ValidationError):
            CveRecord(id="cve-xx", description="text")

    @pytest.mark.parametrize("cve_id", ["CVE-2020-12345\n", "CVE-2020-١٢٣٤٥", "CVE-٢٠٢٠-12345"])
    def test_id_must_be_the_whole_string_of_ascii_digits(self, cve_id):
        with pytest.raises(ValidationError, match="not a CVE identifier"):
            CveRecord(id=cve_id, description="text")

    @pytest.mark.parametrize("raw", ["CWE-١٢", "CWE-12\u0663", "CWE-\uff11"])
    def test_cwe_digits_must_be_ascii(self, raw):
        with pytest.raises(ValidationError, match="not a CWE identifier"):
            normalize_cwe_id(raw)

    def test_normalize_keeps_leading_zeros(self):
        assert normalize_cwe_id(" cwe-012\n") == "CWE-012"

    def test_empty_description_rejected(self):
        with pytest.raises(ValidationError):
            CveRecord(id="CVE-1999-0001", description="   ")

    def test_labels_normalized(self):
        rec = CveRecord(id="CVE-1999-0001", description="x", cwe_labels=frozenset({"cwe-89 "}))
        assert rec.cwe_labels == frozenset({"CWE-89"})

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            CveRecord(id="CVE-1999-0001", description="x", cwe_labels=frozenset({"89"}))
        with pytest.raises(ValidationError):
            normalize_cwe_id("NVD-CWE-Other")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=12),
        st.builds(lambda pad, cwe, n, tail: f"{pad}{cwe}-{n}{tail}",
                  st.sampled_from(["", " ", "\t", "\n "]),
                  st.sampled_from(["CWE", "cwe", "Cwe", "cWE"]),
                  st.integers(0, 10**6), st.sampled_from(["", " ", "\n", "x"])),
    ))
    def test_normalize_cwe_id_is_idempotent(self, raw):
        try:
            once = normalize_cwe_id(raw)
        except ValidationError:
            return
        assert normalize_cwe_id(once) == once


class TestLoadCveCorpus:
    def test_single_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "CVE-2004-0366",
                    "description": "SQL injection vulnerability in the libpam-pgsql library...",
                    "cwe_labels": ["CWE-89"],
                }
            )
            + "\n"
        )
        records = load_cve_corpus(path)
        assert len(records) == 1
        assert records[0].cwe_labels == frozenset({"CWE-89"})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_cve_corpus(path) == []

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = json.dumps({"id": "CVE-1999-0001", "description": "x", "cwe_labels": []})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_cve_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"id": "CVE-1999-0001", "description": "x", "cwe_labels": []})
        path.write_text(good + "\n{oops\n")
        with pytest.raises(FormatError, match=":2"):
            load_cve_corpus(path)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps({"id": f"CVE-1999-{n:04d}", "description": "x", "cwe_labels": []})
            for n in (3, 1, 2)
        ]
        path.write_text("\n".join(lines) + "\n")
        assert [r.id for r in load_cve_corpus(path)] == [
            "CVE-1999-0003",
            "CVE-1999-0001",
            "CVE-1999-0002",
        ]

    def test_round_trip(self, tmp_path):
        records = [
            CveRecord(id="CVE-2000-0001", description="alpha", cwe_labels=frozenset({"CWE-1"})),
            CveRecord(id="CVE-2000-0002", description="beta"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_cve_corpus(records, path)
        assert load_cve_corpus(path) == records


class TestTaxonomy:
    def test_chain_under_virtual_root(self, chain_taxonomy):
        t = chain_taxonomy
        assert t.children[t.root_id] == ("CWE-707",)
        assert t.children["CWE-707"] == ("CWE-74",)
        assert t.children["CWE-74"] == ("CWE-77",)
        assert t.children["CWE-77"] == ("CWE-78",)
        assert t.children["CWE-78"] == ()

    def test_multi_parent_node_in_both_children_lists(self, dag_taxonomy):
        t = dag_taxonomy
        assert "CWE-22" in t.children["CWE-435"]
        assert "CWE-22" in t.children["CWE-664"]

    def test_self_parent_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            build_taxonomy([CweNode(id="CWE-1", parent_ids=frozenset({"CWE-1"}))])

    def test_longer_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            build_taxonomy(
                [
                    CweNode(id="CWE-1", parent_ids=frozenset({"CWE-2"})),
                    CweNode(id="CWE-2", parent_ids=frozenset({"CWE-1"})),
                ]
            )

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValidationError, match="dangling"):
            build_taxonomy([CweNode(id="CWE-1", parent_ids=frozenset({"CWE-99"}))])

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_taxonomy([CweNode(id="CWE-1"), CweNode(id="CWE-1")])

    def test_children_ordered_numerically(self):
        t = build_taxonomy([CweNode(id="CWE-10"), CweNode(id="CWE-2"), CweNode(id="CWE-1")])
        assert t.children[t.root_id] == ("CWE-1", "CWE-2", "CWE-10")

    @settings(max_examples=60, deadline=None)
    @given(st.permutations([
        CweNode(id="CWE-12"), CweNode(id="CWE-012"), CweNode(id="CWE-0012"),
        CweNode(id="CWE-7"), CweNode(id="CWE-07", parent_ids=frozenset({"CWE-12"})),
        CweNode(id="CWE-7000", parent_ids=frozenset({"CWE-12", "CWE-012"})),
        CweNode(id="CWE-700", parent_ids=frozenset({"CWE-12"})),
    ]))
    def test_children_do_not_depend_on_node_order(self, nodes):
        """Ids of one number (``CWE-12``, ``CWE-012``) are ordered by the id."""
        t = build_taxonomy(nodes)
        assert t.children[t.root_id] == ("CWE-7", "CWE-0012", "CWE-012", "CWE-12")
        assert t.children["CWE-12"] == ("CWE-07", "CWE-700", "CWE-7000")
        assert t.order == build_taxonomy(sorted(nodes, key=lambda n: n.id)).order

    def test_a_cwe_number_of_any_length_is_ordered(self):
        huge, padded = "CWE-" + "9" * 5000, "CWE-0" + "1" * 4999
        t = build_taxonomy([CweNode(id=huge), CweNode(id="CWE-10"), CweNode(id=padded)])
        assert t.children[t.root_id] == ("CWE-10", padded, huge)

    def test_ancestors_and_descendants(self, chain_taxonomy):
        assert chain_taxonomy.ancestors("CWE-78") == frozenset({"CWE-707", "CWE-74", "CWE-77"})
        assert chain_taxonomy.descendants("CWE-74") == frozenset({"CWE-77", "CWE-78"})

    def test_internal_nodes_parents_first(self):
        # CWE-3 sits under CWE-1 and, deeper, under CWE-4 -> CWE-2.
        t = build_taxonomy([
            CweNode(id="CWE-1"), CweNode(id="CWE-2"),
            CweNode(id="CWE-4", parent_ids=frozenset({"CWE-2"})),
            CweNode(id="CWE-3", parent_ids=frozenset({"CWE-1", "CWE-4"})),
            CweNode(id="CWE-5", parent_ids=frozenset({"CWE-3"})),
        ])
        order = t.internal_nodes()
        assert sorted(order) == sorted(n for n, kids in t.children.items() if kids)
        assert order[0] == t.root_id
        for node_id in order:
            for parent in t.nodes[node_id].parent_ids:
                assert order.index(parent) < order.index(node_id)

    def test_load_save_round_trip(self, tmp_path, dag_taxonomy):
        path = tmp_path / "taxonomy.json"
        save_taxonomy(dag_taxonomy, path)
        again = load_taxonomy(path)
        assert again.children == dag_taxonomy.children
        save_taxonomy(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_load_taxonomy_file(self, tmp_path):
        doc = {
            "nodes": [
                {"id": "CWE-707", "name": "n", "description": "d",
                 "extended_description": None, "parent_ids": []},
                {"id": "CWE-74", "name": "n", "description": "d",
                 "extended_description": "e", "parent_ids": ["CWE-707"]},
            ]
        }
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(doc))
        t = load_taxonomy(path)
        assert t.children["CWE-707"] == ("CWE-74",)

    def test_missing_nodes_key(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text("{}")
        with pytest.raises(FormatError):
            load_taxonomy(path)

    def test_lower_case_ids_normalized_everywhere(self, tmp_path):
        t = build_taxonomy(
            [
                CweNode(id="cwe-1", name="top"),
                CweNode(id=" cwe-2", name="child", parent_ids=frozenset({"cwe-1"})),
            ]
        )
        assert set(t.nodes) == {"CWE-1", "CWE-2", t.root_id}
        assert t.nodes["CWE-1"].id == "CWE-1"
        assert t.nodes["CWE-2"].parent_ids == frozenset({"CWE-1"})
        assert t.children[t.root_id] == ("CWE-1",)
        assert t.children["CWE-1"] == ("CWE-2",)
        assert all(child in t.nodes for kids in t.children.values() for child in kids)
        path = tmp_path / "tax.json"
        save_taxonomy(t, path)
        saved = json.loads(path.read_text())["nodes"]
        assert [n["id"] for n in saved] == ["CWE-1", "CWE-2"]
        assert saved[1]["parent_ids"] == ["CWE-1"]
        assert load_taxonomy(path).children == t.children


class TestPathsToRoot:
    def test_chain_single_path(self, chain_taxonomy):
        assert paths_to_root(chain_taxonomy, "CWE-78") == {
            ("CWE-707", "CWE-74", "CWE-77", "CWE-78")
        }

    def test_two_parents_two_paths(self, dag_taxonomy):
        assert paths_to_root(dag_taxonomy, "CWE-22") == {
            ("CWE-435", "CWE-22"),
            ("CWE-664", "CWE-22"),
        }

    def test_root_child_is_singleton_path(self, dag_taxonomy):
        assert paths_to_root(dag_taxonomy, "CWE-435") == {("CWE-435",)}

    def test_unknown_id_rejected(self, chain_taxonomy):
        with pytest.raises(ValidationError):
            paths_to_root(chain_taxonomy, "CWE-9999")

    def test_paths_end_at_node_and_follow_edges(self, dag_taxonomy):
        for path in paths_to_root(dag_taxonomy, "CWE-22"):
            assert path[-1] == "CWE-22"
            for parent, child in zip(path, path[1:]):
                assert child in dag_taxonomy.children[parent]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_path_count_matches_brute_force_oracle(self, data):
        # random layered DAG with <= 50 nodes
        n = data.draw(st.integers(min_value=1, max_value=50))
        nodes = []
        for i in range(n):
            if i == 0:
                parents = frozenset()
            else:
                k = data.draw(st.integers(min_value=0, max_value=min(3, i)))
                choices = data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=i - 1),
                        min_size=k, max_size=k, unique=True,
                    )
                )
                parents = frozenset(f"CWE-{c}" for c in choices)
            nodes.append(CweNode(id=f"CWE-{i}", parent_ids=parents))
        taxonomy = build_taxonomy(nodes)

        # independent oracle: path count is the sum over parents' counts
        def count(node_id, seen=()):
            parents = taxonomy.nodes[node_id].parent_ids
            if not parents:
                return 1
            return sum(count(p) for p in parents)

        target = data.draw(st.integers(min_value=0, max_value=n - 1))
        node_id = f"CWE-{target}"
        paths = paths_to_root(taxonomy, node_id)
        assert len(paths) == count(node_id)
        for path in paths:
            assert path[-1] == node_id
            for parent, child in zip(path, path[1:]):
                assert child in taxonomy.children[parent]


def taxonomy_of(parents):
    return build_taxonomy([CweNode(id=n, parent_ids=frozenset(p)) for n, p in parents.items()])


class TestTaxonomyWalks:
    """The order and closures ``build_taxonomy`` computes once, against the
    per-call walks kept in ``oracle``."""

    @given(parents=synthdata.dag_parents())
    def test_closures_equal_reference_walks(self, parents):
        t = taxonomy_of(parents)
        for node_id in t.nodes:
            assert t.ancestors(node_id) == oracle.ancestors(t, node_id)
            assert t.descendants(node_id) == oracle.descendants(t, node_id)
        assert t.internal_nodes() == oracle.internal_nodes(t)

    @given(parents=synthdata.dag_parents())
    def test_internal_nodes_put_parents_first(self, parents):
        t = taxonomy_of(parents)
        assert sorted(t.order) == sorted(t.nodes)
        order = t.internal_nodes()
        assert set(order) == {n for n, kids in t.children.items() if kids}
        position = {n: i for i, n in enumerate(order)}
        for node_id in order:
            for parent in t.nodes[node_id].parent_ids:
                assert position[parent] < position[node_id]

    @given(data=st.data())
    def test_back_edge_raises_naming_a_cycle_of_parent_edges(self, data):
        parents = data.draw(synthdata.dag_parents())
        node_id = data.draw(st.sampled_from(sorted(parents)))
        below = {node_id} | taxonomy_of(parents).descendants(node_id)
        parents[node_id] = parents[node_id] + [data.draw(st.sampled_from(sorted(below)))]
        with pytest.raises(ValidationError):
            oracle.reject_cycles({n: CweNode(id=n, parent_ids=frozenset(p))
                                  for n, p in parents.items()})
        with pytest.raises(ValidationError) as raised:
            taxonomy_of(parents)
        prefix, _, named = str(raised.value).partition("cycle detected: ")
        cycle = named.split(" -> ")
        assert prefix == "" and len(cycle) >= 2 and cycle[0] == cycle[-1]
        for child, parent in zip(cycle, cycle[1:]):
            assert parent in parents[child]


class TestNvdFeed:
    def feed(self, items):
        return {"CVE_Items": items}

    def item(self, cve_id, description, problem_values=()):
        return {
            "cve": {
                "CVE_data_meta": {"ID": cve_id},
                "description": {"description_data": [{"lang": "en", "value": description}]},
                "problemtype": {
                    "problemtype_data": [
                        {"description": [{"lang": "en", "value": v} for v in problem_values]}
                    ]
                },
            }
        }

    def test_cwe_value_copied(self, tmp_path):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(self.feed([self.item("CVE-2020-0001", "text", ["CWE-89"])])))
        records = import_nvd_feed(path)
        assert records[0].cwe_labels == frozenset({"CWE-89"})

    def test_other_and_noinfo_yield_no_labels(self, tmp_path):
        path = tmp_path / "feed.json"
        items = [
            self.item("CVE-2020-0001", "text", ["NVD-CWE-Other"]),
            self.item("CVE-2020-0002", "text", ["NVD-CWE-noinfo"]),
        ]
        path.write_text(json.dumps(self.feed(items)))
        for record in import_nvd_feed(path):
            assert record.cwe_labels == frozenset()

    def test_empty_items(self, tmp_path):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(self.feed([])))
        assert import_nvd_feed(path) == []

    def test_missing_cve_items_key(self, tmp_path):
        path = tmp_path / "feed.json"
        path.write_text("{}")
        with pytest.raises(FormatError, match="CVE_Items"):
            import_nvd_feed(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda cve: cve["problemtype"]["problemtype_data"][0]["description"][0].update(
            value=79), "problemtype.problemtype_data[0].description[0].value"),
        (lambda cve: cve["CVE_data_meta"].update(ID=["CVE-2020-0001"]), "CVE_data_meta.ID"),
        (lambda cve: cve.update(problemtype=[]), "problemtype"),
    ], ids=["problemtype-value", "id", "problemtype"])
    def test_mistyped_field_named(self, tmp_path, edit, field):
        item = self.item("CVE-2020-0001", "text", ["CWE-89"])
        edit(item["cve"])
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(self.feed([self.item("CVE-2020-0002", "text"), item])))
        with pytest.raises(FormatError, match=re.escape(f"CVE_Items[1].cve.{field} is not")):
            import_nvd_feed(path)

    def test_item_without_english_description_skipped(self, tmp_path):
        item = self.item("CVE-2020-0001", "", [])
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(self.feed([item])))
        assert import_nvd_feed(path) == []


class TestAssetLoaders:
    def test_stopwords_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\n\nto  # inline\n")
        assert load_stopwords(path) == frozenset({"the", "to"})

    def test_synonyms_are_stemmed_on_load(self, tmp_path):
        path = tmp_path / "syn.json"
        path.write_text(
            json.dumps(
                {"groups": [{"code": "xee", "members": ["XML entity expansion", "XEE"]}]}
            )
        )
        table = load_synonyms(path)
        assert table.groups == (("xee", (("xml", "entiti", "expans"),)),)

    def test_synonym_code_must_be_single_token(self, tmp_path):
        path = tmp_path / "syn.json"
        path.write_text(json.dumps({"groups": [{"code": "two words", "members": ["x"]}]}))
        with pytest.raises(ValidationError):
            load_synonyms(path)

    def test_default_assets_load(self):
        stop = load_stopwords()
        table = load_synonyms(stopwords=stop)
        assert "the" in stop
        assert table.groups
