//! Flattened DeviceTree blob (DTB) encoding and decoding, version 17.
//!
//! Stands in for `dtc -O dtb` / `dtc -I dtb`: the binary ABI through
//! which an OS or hypervisor (Bao, Linux) consumes the tree at boot.
//! Layout per the DeviceTree specification chapter 5: a header, a memory
//! reservation block, a structure block of `BEGIN_NODE`/`PROP`/
//! `END_NODE` tokens, and a deduplicated strings block.

use std::collections::HashMap;

use crate::tree::{Cell, DeviceTree, Node, PropValue, Property};

/// The FDT magic number.
pub const FDT_MAGIC: u32 = 0xd00d_feed;
/// Blob format version emitted by [`encode`].
pub const FDT_VERSION: u32 = 17;
const FDT_LAST_COMP_VERSION: u32 = 16;

const FDT_BEGIN_NODE: u32 = 1;
const FDT_END_NODE: u32 = 2;
const FDT_PROP: u32 = 3;
const FDT_NOP: u32 = 4;
const FDT_END: u32 = 9;

/// Errors produced while decoding a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdtError {
    /// The magic number was wrong.
    BadMagic(u32),
    /// The blob is truncated or an offset points outside it.
    Truncated,
    /// An unknown structure token was encountered.
    BadToken(u32),
    /// A string (node name, property name or value) was not valid UTF-8.
    BadString,
    /// The structure block was malformed (unbalanced nodes, missing END).
    Malformed(&'static str),
}

impl std::fmt::Display for FdtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdtError::BadMagic(m) => write!(f, "bad FDT magic {m:#010x}"),
            FdtError::Truncated => write!(f, "truncated FDT blob"),
            FdtError::BadToken(t) => write!(f, "unknown FDT token {t}"),
            FdtError::BadString => write!(f, "non-UTF-8 string in FDT blob"),
            FdtError::Malformed(m) => write!(f, "malformed FDT structure: {m}"),
        }
    }
}

impl std::error::Error for FdtError {}

fn align4(v: &mut Vec<u8>) {
    while !v.len().is_multiple_of(4) {
        v.push(0);
    }
}

fn put_u32(out: &mut Vec<u8>, word: u32) {
    out.extend_from_slice(&word.to_be_bytes());
}

/// Size of the blob header: ten big-endian words.
const HEADER_LEN: usize = 40;

/// Encodes a tree as a DTB v17 blob.
///
/// `&label` references inside cell lists are resolved to phandles (one
/// is allocated per labelled node, and a `phandle` property is
/// materialised on each referenced node).
///
/// The structure block is written straight into the blob: each
/// property's value is serialised in place and its length patched in
/// afterwards, and names are interned by reference into the tree, so
/// encoding allocates only as the output and strings block grow.
pub fn encode(tree: &DeviceTree) -> Vec<u8> {
    let mut enc = Encoder {
        blob: vec![0; HEADER_LEN],
        strings: Vec::new(),
        string_off: HashMap::new(),
        phandles: tree.phandle_map(),
    };
    // Memory reservation block (terminated by a zero entry).
    let off_rsvmap = enc.blob.len();
    for &(addr, size) in tree.reservations.iter().chain([(0, 0)].iter()) {
        enc.blob.extend_from_slice(&addr.to_be_bytes());
        enc.blob.extend_from_slice(&size.to_be_bytes());
    }
    let off_struct = enc.blob.len();
    enc.node(&tree.root);
    put_u32(&mut enc.blob, FDT_END);
    let off_strings = enc.blob.len();
    let Encoder {
        mut blob, strings, ..
    } = enc;
    blob.extend_from_slice(&strings);

    let header = [
        FDT_MAGIC,
        blob.len() as u32,
        off_struct as u32,
        off_strings as u32,
        off_rsvmap as u32,
        FDT_VERSION,
        FDT_LAST_COMP_VERSION,
        0, // boot_cpuid_phys
        strings.len() as u32,
        (off_strings - off_struct) as u32,
    ];
    for (slot, word) in blob.chunks_exact_mut(4).zip(header) {
        slot.copy_from_slice(&word.to_be_bytes());
    }
    blob
}

/// The state of one [`encode`] call.
struct Encoder<'t> {
    /// Header placeholder, reservation block, then the structure block
    /// as it is written.
    blob: Vec<u8>,
    /// The strings block: each property name once, in first-use order.
    strings: Vec<u8>,
    /// Offset of each name in `strings`.
    string_off: HashMap<&'t str, u32>,
    phandles: HashMap<&'t str, u32>,
}

impl<'t> Encoder<'t> {
    fn intern(&mut self, name: &'t str) -> u32 {
        if let Some(&off) = self.string_off.get(name) {
            return off;
        }
        let off = self.strings.len() as u32;
        self.strings.extend_from_slice(name.as_bytes());
        self.strings.push(0);
        self.string_off.insert(name, off);
        off
    }

    fn phandle(&self, label: &str) -> u32 {
        self.phandles.get(label).copied().unwrap_or(0)
    }

    fn node(&mut self, node: &'t Node) {
        put_u32(&mut self.blob, FDT_BEGIN_NODE);
        self.blob.extend_from_slice(node.name.as_bytes());
        self.blob.push(0);
        align4(&mut self.blob);
        for p in &node.properties {
            self.prop(p);
        }
        // Materialise a phandle property for labelled nodes.
        if let Some(&ph) = node
            .labels
            .iter()
            .find_map(|l| self.phandles.get(l.as_str()))
        {
            if node.prop("phandle").is_none() {
                let start = self.begin_prop("phandle");
                put_u32(&mut self.blob, ph);
                self.end_prop(start);
            }
        }
        for c in &node.children {
            self.node(c);
        }
        put_u32(&mut self.blob, FDT_END_NODE);
    }

    /// Starts a property: its token, a zero length for
    /// [`Encoder::end_prop`] to fill in, and its name offset. Returns
    /// where the value starts.
    fn begin_prop(&mut self, name: &'t str) -> usize {
        put_u32(&mut self.blob, FDT_PROP);
        put_u32(&mut self.blob, 0);
        let off = self.intern(name);
        put_u32(&mut self.blob, off);
        self.blob.len()
    }

    /// Ends the property whose value started at `value_start`: patches
    /// its length word and pads to a word boundary.
    fn end_prop(&mut self, value_start: usize) {
        let len = (self.blob.len() - value_start) as u32;
        self.blob[value_start - 8..value_start - 4].copy_from_slice(&len.to_be_bytes());
        align4(&mut self.blob);
    }

    /// Serialises one property, resolving references through the
    /// phandle map.
    fn prop(&mut self, p: &'t Property) {
        let start = self.begin_prop(&p.name);
        for v in &p.values {
            match v {
                PropValue::Cells(cells) => {
                    for c in cells {
                        let raw = match c {
                            Cell::U32(x) => *x,
                            Cell::Ref(l) => self.phandle(l),
                        };
                        put_u32(&mut self.blob, raw);
                    }
                }
                PropValue::Str(s) => {
                    self.blob.extend_from_slice(s.as_bytes());
                    self.blob.push(0);
                }
                PropValue::Bytes(bs) => self.blob.extend_from_slice(bs),
                PropValue::Ref(l) => {
                    let raw = self.phandle(l);
                    put_u32(&mut self.blob, raw);
                }
            }
        }
        self.end_prop(start);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, FdtError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FdtError> {
        let hi = self.u32()? as u64;
        let lo = self.u32()? as u64;
        Ok((hi << 32) | lo)
    }

    fn cstr(&mut self) -> Result<String, FdtError> {
        let start = self.pos;
        while *self.data.get(self.pos).ok_or(FdtError::Truncated)? != 0 {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.data[start..self.pos])
            .map_err(|_| FdtError::BadString)?
            .to_string();
        self.pos += 1; // NUL
        Ok(s)
    }

    fn align4(&mut self) {
        self.pos = (self.pos + 3) & !3;
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FdtError> {
        // checked_add: `pos` and `n` both derive from untrusted header
        // words, so the sum must not be allowed to wrap.
        let end = self.pos.checked_add(n).ok_or(FdtError::Truncated)?;
        let b = self.data.get(self.pos..end).ok_or(FdtError::Truncated)?;
        self.pos = end;
        Ok(b)
    }
}

/// Decodes a DTB blob back into a tree.
///
/// Property values come back as raw [`PropValue::Bytes`] — the blob
/// format does not retain value typing. Encoding the result again
/// yields a byte-identical structure block, which the round-trip
/// property test checks.
///
/// # Errors
///
/// Returns an [`FdtError`] for malformed input.
pub fn decode(blob: &[u8]) -> Result<DeviceTree, FdtError> {
    let mut r = Reader { data: blob, pos: 0 };
    let magic = r.u32()?;
    if magic != FDT_MAGIC {
        return Err(FdtError::BadMagic(magic));
    }
    let _total = r.u32()?;
    let off_struct = r.u32()? as usize;
    let off_strings = r.u32()? as usize;
    let off_rsvmap = r.u32()? as usize;
    let _version = r.u32()?;
    let _last_comp = r.u32()?;
    let _boot_cpu = r.u32()?;
    let _size_strings = r.u32()?;
    let _size_struct = r.u32()?;

    // Reservations.
    let mut tree = DeviceTree {
        has_version_tag: true,
        ..DeviceTree::default()
    };
    let mut rr = Reader {
        data: blob,
        pos: off_rsvmap,
    };
    loop {
        let addr = rr.u64()?;
        let size = rr.u64()?;
        if addr == 0 && size == 0 {
            break;
        }
        tree.reservations.push((addr, size));
    }

    let strings = blob.get(off_strings..).ok_or(FdtError::Truncated)?;
    let prop_name = |off: u32| -> Result<String, FdtError> {
        let s = strings.get(off as usize..).ok_or(FdtError::Truncated)?;
        let end = s.iter().position(|&b| b == 0).ok_or(FdtError::Truncated)?;
        std::str::from_utf8(&s[..end])
            .map(str::to_string)
            .map_err(|_| FdtError::BadString)
    };

    let mut sr = Reader {
        data: blob,
        pos: off_struct,
    };
    let mut stack: Vec<Node> = Vec::new();
    loop {
        let token = sr.u32()?;
        match token {
            FDT_BEGIN_NODE => {
                // Same ceiling as the DTS parser: decoded trees feed
                // the same recursive printers and walkers, so a blob
                // must not smuggle in nesting the text path rejects.
                if stack.len() >= crate::parser::MAX_NODE_DEPTH {
                    return Err(FdtError::Malformed("node nesting too deep"));
                }
                let name = sr.cstr()?;
                sr.align4();
                stack.push(Node::new(&name));
            }
            FDT_END_NODE => {
                let done = stack
                    .pop()
                    .ok_or(FdtError::Malformed("unbalanced END_NODE"))?;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => {
                        tree.root = done;
                        // Expect FDT_END (possibly after NOPs).
                        loop {
                            match sr.u32()? {
                                FDT_NOP => continue,
                                FDT_END => return Ok(tree),
                                t => return Err(FdtError::BadToken(t)),
                            }
                        }
                    }
                }
            }
            FDT_PROP => {
                let len = sr.u32()? as usize;
                let name_off = sr.u32()?;
                let raw = sr.bytes(len)?.to_vec();
                sr.align4();
                let name = prop_name(name_off)?;
                let node = stack
                    .last_mut()
                    .ok_or(FdtError::Malformed("property outside node"))?;
                node.properties.push(Property {
                    name,
                    values: if raw.is_empty() {
                        Vec::new()
                    } else {
                        vec![PropValue::Bytes(raw)]
                    },
                });
            }
            FDT_NOP => {}
            FDT_END => {
                return Err(FdtError::Malformed("END before root completed"));
            }
            t => return Err(FdtError::BadToken(t)),
        }
    }
}

/// Decodes a blob and re-types property values heuristically: a value
/// that looks like one or more NUL-terminated printable strings becomes
/// [`PropValue::Str`] values, a multiple of 4 bytes becomes a cell
/// list, anything else stays raw bytes. This is what `dtc -I dtb -O
/// dts` does to make decompiled sources readable; the raw-preserving
/// [`decode`] remains the round-trip-exact API.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_typed(blob: &[u8]) -> Result<DeviceTree, FdtError> {
    let mut tree = decode(blob)?;
    fn retype(node: &mut Node) {
        for p in &mut node.properties {
            let raw: Vec<u8> = match p.values.as_slice() {
                [PropValue::Bytes(b)] => b.clone(),
                _ => continue,
            };
            if let Some(strings) = as_string_list(&raw) {
                p.values = strings.into_iter().map(PropValue::Str).collect();
            } else if raw.len().is_multiple_of(4) && !raw.is_empty() {
                let cells: Vec<Cell> = raw
                    .chunks(4)
                    .map(|c| Cell::U32(u32::from_be_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
                p.values = vec![PropValue::Cells(cells)];
            }
        }
        for c in &mut node.children {
            retype(c);
        }
    }
    retype(&mut tree.root);
    Ok(tree)
}

/// Interprets bytes as a list of NUL-terminated printable strings.
fn as_string_list(raw: &[u8]) -> Option<Vec<String>> {
    if raw.last() != Some(&0) || raw.len() < 2 {
        return None;
    }
    let mut out = Vec::new();
    for part in raw[..raw.len() - 1].split(|&b| b == 0) {
        if part.is_empty() {
            return None;
        }
        if !part.iter().all(|&b| (0x20..0x7f).contains(&b)) {
            return None;
        }
        out.push(String::from_utf8(part.to_vec()).ok()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tree::Cell;

    fn sample() -> DeviceTree {
        parse(
            r#"/dts-v1/;
            / {
                #address-cells = <2>;
                #size-cells = <2>;
                model = "custom-sbc";
                memory@40000000 {
                    device_type = "memory";
                    reg = <0x0 0x40000000 0x0 0x20000000>;
                };
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@0 { compatible = "arm,cortex-a53"; reg = <0x0>; };
                };
            };"#,
        )
        .unwrap()
    }

    #[test]
    fn header_fields() {
        let blob = encode(&sample());
        assert_eq!(
            u32::from_be_bytes([blob[0], blob[1], blob[2], blob[3]]),
            FDT_MAGIC
        );
        let total = u32::from_be_bytes([blob[4], blob[5], blob[6], blob[7]]);
        assert_eq!(total as usize, blob.len());
        let version = u32::from_be_bytes([blob[20], blob[21], blob[22], blob[23]]);
        assert_eq!(version, 17);
    }

    #[test]
    fn decode_recovers_structure() {
        let t = sample();
        let blob = encode(&t);
        let back = decode(&blob).unwrap();
        assert_eq!(back.size(), t.size());
        let mem = back.find("/memory@40000000").unwrap();
        // Values come back as raw bytes.
        assert_eq!(
            mem.prop("device_type").unwrap().values,
            vec![PropValue::Bytes(b"memory\0".to_vec())]
        );
        let reg = mem.prop("reg").unwrap();
        assert_eq!(
            reg.values,
            vec![PropValue::Bytes(vec![
                0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0
            ])]
        );
    }

    #[test]
    fn encode_decode_encode_is_stable() {
        let t = sample();
        let b1 = encode(&t);
        let t2 = decode(&b1).unwrap();
        let b2 = encode(&t2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn phandles_resolve_references() {
        let t = parse(
            r#"/ {
                intc: pic@10000000 { };
                uart@20000000 { interrupt-parent = <&intc>; };
            };"#,
        )
        .unwrap();
        let blob = encode(&t);
        let back = decode(&blob).unwrap();
        let pic = back.find("/pic@10000000").unwrap();
        let ph = match &pic.prop("phandle").unwrap().values[0] {
            PropValue::Bytes(b) => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(ph, 1);
        let uart = back.find("/uart@20000000").unwrap();
        match &uart.prop("interrupt-parent").unwrap().values[0] {
            PropValue::Bytes(b) => {
                assert_eq!(u32::from_be_bytes([b[0], b[1], b[2], b[3]]), ph);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reservations_roundtrip() {
        let mut t = sample();
        t.reservations.push((0x1000, 0x4000));
        t.reservations.push((0x8000, 0x100));
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.reservations, vec![(0x1000, 0x4000), (0x8000, 0x100)]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode(&sample());
        blob[0] = 0;
        assert!(matches!(decode(&blob), Err(FdtError::BadMagic(_))));
    }

    #[test]
    fn truncation_rejected() {
        let blob = encode(&sample());
        for cut in [8, 40, blob.len() / 2] {
            assert!(decode(&blob[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn flag_property_is_empty_not_missing() {
        let t = parse("/ { chosen { ranges; }; };").unwrap();
        let back = decode(&encode(&t)).unwrap();
        let chosen = back.find("/chosen").unwrap();
        let p = chosen.prop("ranges").unwrap();
        assert!(p.values.is_empty());
    }

    #[test]
    fn decode_typed_recovers_value_kinds() {
        let t = sample();
        let blob = encode(&t);
        let typed = decode_typed(&blob).unwrap();
        let mem = typed.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop_str("device_type"), Some("memory"));
        assert_eq!(
            mem.prop("reg").unwrap().flat_cells().unwrap(),
            vec![0, 0x4000_0000, 0, 0x2000_0000]
        );
        // The typed tree prints to readable DTS that reparses.
        let text = crate::printer::print(&typed);
        assert!(text.contains("device_type = \"memory\";"));
        assert!(crate::parser::parse(&text).is_ok());
    }

    #[test]
    fn decode_typed_string_lists() {
        let t = parse(r#"/ { compatible = "vendor,board", "generic"; };"#).unwrap();
        let typed = decode_typed(&encode(&t)).unwrap();
        let p = typed.root.prop("compatible").unwrap();
        assert_eq!(
            p.values,
            vec![
                PropValue::Str("vendor,board".into()),
                PropValue::Str("generic".into())
            ]
        );
    }

    #[test]
    fn decode_typed_keeps_odd_bytes_raw() {
        let mut t = DeviceTree::new();
        t.ensure("/x").set_prop(Property {
            name: "blob".into(),
            values: vec![PropValue::Bytes(vec![1, 2, 3])],
        });
        let typed = decode_typed(&encode(&t)).unwrap();
        assert_eq!(
            typed.find("/x").unwrap().prop("blob").unwrap().values,
            vec![PropValue::Bytes(vec![1, 2, 3])]
        );
    }

    #[test]
    fn deeply_nested_blob_rejected() {
        // A structure block of nothing but BEGIN_NODE tokens must hit
        // the depth ceiling, not exhaust the stack in a later walk.
        let mut structure: Vec<u8> = Vec::new();
        for _ in 0..(crate::parser::MAX_NODE_DEPTH + 8) {
            structure.extend_from_slice(&FDT_BEGIN_NODE.to_be_bytes());
            structure.extend_from_slice(b"n\0\0\0");
        }
        let mut rsvmap = Vec::new();
        rsvmap.extend_from_slice(&[0u8; 16]);
        let off_struct = 40 + rsvmap.len() as u32;
        let off_strings = off_struct + structure.len() as u32;
        let mut blob = Vec::new();
        for word in [
            FDT_MAGIC,
            off_strings,
            off_struct,
            off_strings,
            40,
            FDT_VERSION,
            FDT_LAST_COMP_VERSION,
            0,
            0,
            structure.len() as u32,
        ] {
            blob.extend_from_slice(&word.to_be_bytes());
        }
        blob.extend_from_slice(&rsvmap);
        blob.extend_from_slice(&structure);
        assert_eq!(
            decode(&blob),
            Err(FdtError::Malformed("node nesting too deep"))
        );
    }

    #[test]
    fn ref_cells_unknown_label_encodes_zero() {
        let mut t = DeviceTree::new();
        let n = t.ensure("/x");
        n.set_prop(Property {
            name: "link".into(),
            values: vec![PropValue::Cells(vec![Cell::Ref("ghost".into())])],
        });
        let back = decode(&encode(&t)).unwrap();
        match &back.find("/x").unwrap().prop("link").unwrap().values[0] {
            PropValue::Bytes(b) => assert_eq!(b, &vec![0, 0, 0, 0]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
