//! Property test: `fdt::encode` writes the same bytes as a plain
//! reference encoder kept here, which serialises every property into a
//! vector of its own, interns names through an ordered map and numbers
//! phandles through `DeviceTree::nodes`. The generated trees repeat
//! labels across nodes, and mix `&ref` cells (to known and unknown
//! labels), bare references, strings, byte strings, flags, explicit
//! `phandle` properties and `/memreserve/` entries.

use std::collections::BTreeMap;

use llhsc_dts::fdt::{encode, FDT_MAGIC, FDT_VERSION};
use llhsc_dts::{Cell, DeviceTree, Node, PropValue, Property};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["a", "b@10", "c", "uart@2000"];
/// `ghost` never labels a node, so references to it encode as zero.
const LABELS: [&str; 4] = ["l0", "l1", "l2", "ghost"];
const PROPS: [&str; 5] = ["reg", "compatible", "interrupt-parent", "phandle", "x"];

fn arb_value() -> impl Strategy<Value = PropValue> {
    let cell = prop_oneof![
        any::<u32>().prop_map(Cell::U32),
        (0..LABELS.len()).prop_map(|l| Cell::Ref(LABELS[l].to_string())),
    ];
    prop_oneof![
        prop::collection::vec(cell, 0..4).prop_map(PropValue::Cells),
        (0..NAMES.len()).prop_map(|n| PropValue::Str(NAMES[n].to_string())),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(PropValue::Bytes),
        (0..LABELS.len()).prop_map(|l| PropValue::Ref(LABELS[l].to_string())),
    ]
}

fn arb_prop() -> impl Strategy<Value = Property> {
    (0..PROPS.len(), prop::collection::vec(arb_value(), 0..3)).prop_map(|(n, values)| Property {
        name: PROPS[n].to_string(),
        values,
    })
}

fn arb_node(depth: u32) -> BoxedStrategy<Node> {
    let children = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        prop::collection::vec(arb_node(depth - 1), 0..4).boxed()
    };
    (
        0..NAMES.len(),
        prop::collection::vec(0..LABELS.len() - 1, 0..3),
        prop::collection::vec(arb_prop(), 0..4),
        children,
    )
        .prop_map(|(name, labels, properties, children)| Node {
            name: NAMES[name].to_string(),
            labels: labels.into_iter().map(|l| LABELS[l].to_string()).collect(),
            properties,
            children,
        })
        .boxed()
}

fn arb_tree() -> impl Strategy<Value = DeviceTree> {
    let reservations = prop::collection::vec((any::<u64>(), any::<u64>()), 0..3);
    (arb_node(3), reservations).prop_map(|(mut root, reservations)| {
        root.name = String::new();
        DeviceTree {
            root,
            has_version_tag: true,
            reservations,
        }
    })
}

fn align4(v: &mut Vec<u8>) {
    while !v.len().is_multiple_of(4) {
        v.push(0);
    }
}

/// Labels in depth-first order of first appearance, numbered from 1.
fn reference_phandles(tree: &DeviceTree) -> BTreeMap<String, u32> {
    let mut map = BTreeMap::new();
    let mut next = 1u32;
    for (_, n) in tree.nodes() {
        for l in &n.labels {
            map.entry(l.clone()).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
        }
    }
    map
}

fn reference_prop_bytes(p: &Property, phandles: &BTreeMap<String, u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in &p.values {
        match v {
            PropValue::Cells(cells) => {
                for c in cells {
                    let raw = match c {
                        Cell::U32(x) => *x,
                        Cell::Ref(l) => phandles.get(l).copied().unwrap_or(0),
                    };
                    out.extend_from_slice(&raw.to_be_bytes());
                }
            }
            PropValue::Str(s) => {
                out.extend_from_slice(s.as_bytes());
                out.push(0);
            }
            PropValue::Bytes(bs) => out.extend_from_slice(bs),
            PropValue::Ref(l) => {
                let raw = phandles.get(l).copied().unwrap_or(0);
                out.extend_from_slice(&raw.to_be_bytes());
            }
        }
    }
    out
}

struct Reference {
    phandles: BTreeMap<String, u32>,
    structure: Vec<u8>,
    strings: Vec<u8>,
    string_off: BTreeMap<String, u32>,
}

impl Reference {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&off) = self.string_off.get(name) {
            return off;
        }
        let off = self.strings.len() as u32;
        self.strings.extend_from_slice(name.as_bytes());
        self.strings.push(0);
        self.string_off.insert(name.to_string(), off);
        off
    }

    fn node(&mut self, node: &Node) {
        self.structure.extend_from_slice(&1u32.to_be_bytes());
        self.structure.extend_from_slice(node.name.as_bytes());
        self.structure.push(0);
        align4(&mut self.structure);
        let mut props: Vec<(String, Vec<u8>)> = node
            .properties
            .iter()
            .map(|p| (p.name.clone(), reference_prop_bytes(p, &self.phandles)))
            .collect();
        if let Some(ph) = node.labels.iter().find_map(|l| self.phandles.get(l)) {
            if node.prop("phandle").is_none() {
                props.push(("phandle".to_string(), ph.to_be_bytes().to_vec()));
            }
        }
        for (name, bytes) in props {
            self.structure.extend_from_slice(&3u32.to_be_bytes());
            self.structure
                .extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            let off = self.intern(&name);
            self.structure.extend_from_slice(&off.to_be_bytes());
            self.structure.extend_from_slice(&bytes);
            align4(&mut self.structure);
        }
        for c in &node.children {
            self.node(c);
        }
        self.structure.extend_from_slice(&2u32.to_be_bytes());
    }
}

/// The reference encoder: header, reservation block, structure block,
/// strings block, each assembled separately.
fn reference_encode(tree: &DeviceTree) -> Vec<u8> {
    let mut r = Reference {
        phandles: reference_phandles(tree),
        structure: Vec::new(),
        strings: Vec::new(),
        string_off: BTreeMap::new(),
    };
    r.node(&tree.root);
    r.structure.extend_from_slice(&9u32.to_be_bytes());

    let mut rsvmap = Vec::new();
    for &(addr, size) in &tree.reservations {
        rsvmap.extend_from_slice(&addr.to_be_bytes());
        rsvmap.extend_from_slice(&size.to_be_bytes());
    }
    rsvmap.extend_from_slice(&[0; 16]);

    let off_rsvmap = 40u32;
    let off_struct = off_rsvmap + rsvmap.len() as u32;
    let off_strings = off_struct + r.structure.len() as u32;
    let total = off_strings + r.strings.len() as u32;
    let mut out = Vec::new();
    for word in [
        FDT_MAGIC,
        total,
        off_struct,
        off_strings,
        off_rsvmap,
        FDT_VERSION,
        16,
        0,
        r.strings.len() as u32,
        r.structure.len() as u32,
    ] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    out.extend_from_slice(&rsvmap);
    out.extend_from_slice(&r.structure);
    out.extend_from_slice(&r.strings);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_matches_reference_encoder(tree in arb_tree()) {
        prop_assert_eq!(encode(&tree), reference_encode(&tree));
    }
}

/// A parsed source with every value kind, repeated labels and an
/// explicit phandle.
#[test]
fn parsed_board_matches_reference_encoder() {
    let tree = llhsc_dts::parse(
        r#"/dts-v1/;
        /memreserve/ 0x1000 0x2000;
        / {
            #address-cells = <1>;
            #size-cells = <1>;
            intc: ic@100 { reg = <0x100 0x10>; };
            dup: a@200 { reg = <0x200 0x10>; mac = [ 00 11 22 ]; };
            b@300 { dup: inner { phandle = <0x42>; }; link = <&intc 3 &dup &ghost>, "s"; bare = &intc; flag; };
        };"#,
    )
    .unwrap();
    assert_eq!(encode(&tree), reference_encode(&tree));
}
