//! Property tests: the parser's and `Node::merge`'s indexed child
//! insertion agree with a naive linear-scan reference kept here, on
//! sources full of repeated child names, re-opened nodes, labels on the
//! repeats, `/delete-node/` between repeats, repeated top-level blocks
//! and `&label` patches.

use llhsc_dts::{parse, DeviceTree, DtsError, Node, Property};
use proptest::prelude::*;

/// A small name pool so siblings repeat; `c` and `c@1` share a base
/// name but are distinct exact names.
const NAMES: [&str; 4] = ["a", "b", "c", "c@1"];
const LABELS: [&str; 3] = ["l0", "l1", "l2"];
const PROPS: [&str; 2] = ["x", "y"];

/// One statement of a node body.
#[derive(Debug, Clone)]
enum Item {
    /// `name = <value>;`
    Prop(usize, u32),
    /// `labels: name { body };`
    Child {
        labels: Vec<usize>,
        name: usize,
        body: Vec<Item>,
    },
    /// `/delete-node/ name;`
    DeleteNode(usize),
}

/// One top-level statement.
#[derive(Debug, Clone)]
enum Top {
    /// `/ { body };`
    Root(Vec<Item>),
    /// `&label { body };`
    Patch(usize, Vec<Item>),
}

fn arb_items(depth: u32) -> BoxedStrategy<Vec<Item>> {
    let labels = || prop::collection::vec(0..LABELS.len(), 0..3);
    let child = move || {
        let body = if depth == 0 {
            Just(Vec::new()).boxed()
        } else {
            arb_items(depth - 1)
        };
        (labels(), 0..NAMES.len(), body).prop_map(|(labels, name, body)| Item::Child {
            labels,
            name,
            body,
        })
    };
    let item = prop_oneof![
        (0..PROPS.len(), 0u32..4).prop_map(|(n, v)| Item::Prop(n, v)),
        (0..NAMES.len()).prop_map(Item::DeleteNode),
        child(),
        child(),
    ];
    prop::collection::vec(item, 0..7).boxed()
}

fn arb_doc() -> impl Strategy<Value = Vec<Top>> {
    let top = prop_oneof![
        arb_items(2).prop_map(Top::Root),
        arb_items(2).prop_map(Top::Root),
        (0..LABELS.len(), arb_items(1)).prop_map(|(l, body)| Top::Patch(l, body)),
    ];
    prop::collection::vec(top, 1..4)
}

fn render_items(items: &[Item], out: &mut String) {
    for item in items {
        match item {
            Item::Prop(n, v) => out.push_str(&format!("{} = <{v}>; ", PROPS[*n])),
            Item::Child { labels, name, body } => {
                for l in labels {
                    out.push_str(&format!("{}: ", LABELS[*l]));
                }
                out.push_str(&format!("{} {{ ", NAMES[*name]));
                render_items(body, out);
                out.push_str("}; ");
            }
            Item::DeleteNode(n) => out.push_str(&format!("/delete-node/ {}; ", NAMES[*n])),
        }
    }
}

fn render(doc: &[Top]) -> String {
    let mut out = String::from("/dts-v1/;\n");
    for top in doc {
        let body = match top {
            Top::Root(body) => {
                out.push_str("/ { ");
                body
            }
            Top::Patch(l, body) => {
                out.push_str(&format!("&{} {{ ", LABELS[*l]));
                body
            }
        };
        render_items(body, &mut out);
        out.push_str("};\n");
    }
    out
}

/// Reference merge: a linear scan of the siblings for each incoming
/// child, first same-named match wins.
fn naive_merge(mine: &mut Node, other: Node) {
    for l in other.labels {
        if !mine.labels.contains(&l) {
            mine.labels.push(l);
        }
    }
    for p in other.properties {
        mine.set_prop(p);
    }
    for c in other.children {
        naive_insert(&mut mine.children, c);
    }
}

fn naive_insert(children: &mut Vec<Node>, child: Node) {
    match children.iter_mut().find(|mine| mine.name == child.name) {
        Some(mine) => naive_merge(mine, child),
        None => children.push(child),
    }
}

/// Reference interpretation of one node body, statement by statement.
fn naive_body(name: &str, items: &[Item]) -> Node {
    let mut node = Node::new(name);
    for item in items {
        match item {
            Item::Prop(n, v) => node.set_prop(Property::cells(PROPS[*n], [*v])),
            Item::Child { labels, name, body } => {
                let mut child = naive_body(NAMES[*name], body);
                child.labels = labels.iter().map(|l| LABELS[*l].to_string()).collect();
                naive_insert(&mut node.children, child);
            }
            Item::DeleteNode(n) => {
                node.remove_child(NAMES[*n]);
            }
        }
    }
    node
}

/// Reference interpretation of a whole document.
fn naive_parse(doc: &[Top]) -> Result<DeviceTree, DtsError> {
    let mut tree = DeviceTree::new();
    for top in doc {
        match top {
            Top::Root(body) => naive_merge(&mut tree.root, naive_body("", body)),
            Top::Patch(l, body) => {
                let label = LABELS[*l];
                let path = tree
                    .resolve_label(label)
                    .ok_or_else(|| DtsError::UnknownLabel {
                        label: label.to_string(),
                    })?;
                let target = tree
                    .find_path_mut(&path)
                    .ok_or_else(|| DtsError::NoSuchNode {
                        path: path.to_string(),
                    })?;
                let patch = naive_body(&target.name.clone(), body);
                naive_merge(target, patch);
            }
        }
    }
    Ok(tree)
}

/// A node built by the reference from one body, repeats and all: its
/// children may share names, which `Node::merge` must resolve by first
/// match exactly like the reference.
fn arb_node() -> impl Strategy<Value = Node> {
    (0..NAMES.len(), arb_items(2)).prop_map(|(name, items)| {
        let mut node = naive_body(NAMES[name], &items);
        // Re-append a copy of every child so names repeat in `children`.
        let repeats = node.children.clone();
        node.children.extend(repeats);
        node
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parsing a document equals interpreting it with linear scans.
    #[test]
    fn parse_matches_naive_reference(doc in arb_doc()) {
        let text = render(&doc);
        match (parse(&text), naive_parse(&doc)) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(false, "{text}\nparse: {got:?}\nreference: {want:?}"),
        }
    }

    /// `Node::merge` equals the linear-scan merge, also when either
    /// side already holds repeated child names.
    #[test]
    fn merge_matches_naive_reference(a in arb_node(), b in arb_node()) {
        let mut got = a.clone();
        got.merge(b.clone());
        let mut want = a;
        naive_merge(&mut want, b);
        prop_assert_eq!(got, want);
    }
}
