//! The DeviceTree data model: nodes, properties, values and paths.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::hash::BuildHasher;

use crate::error::DtsError;

/// One 32-bit cell inside a `< … >` list: a literal or a `&label`
/// reference (phandle).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A literal 32-bit value.
    U32(u32),
    /// A reference to a labelled node, resolved to a phandle when the
    /// tree is flattened.
    Ref(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::U32(v) => write!(f, "{v:#x}"),
            Cell::Ref(l) => write!(f, "&{l}"),
        }
    }
}

/// One value in a property's value list (values are comma-separated in
/// source, e.g. `compatible = "a", "b";`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PropValue {
    /// `< c1 c2 … >`
    Cells(Vec<Cell>),
    /// `"…"`
    Str(String),
    /// `[ aa bb … ]`
    Bytes(Vec<u8>),
    /// A bare `&label` outside a cell list.
    Ref(String),
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Cells(cs) => {
                write!(f, "<")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ">")
            }
            PropValue::Str(s) => write!(f, "{s:?}"),
            PropValue::Bytes(bs) => {
                write!(f, "[")?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b:02x}")?;
                }
                write!(f, "]")
            }
            PropValue::Ref(l) => write!(f, "&{l}"),
        }
    }
}

/// A property: a name and zero or more values. A property with no values
/// (`foo;`) is a Boolean flag per the DeviceTree specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Property {
    /// Property name, e.g. `#address-cells`.
    pub name: String,
    /// Value list; empty for flag properties.
    pub values: Vec<PropValue>,
}

impl Property {
    /// Creates a property holding a single cell list of `u32`s.
    pub fn cells<I: IntoIterator<Item = u32>>(name: &str, vals: I) -> Property {
        Property {
            name: name.to_string(),
            values: vec![PropValue::Cells(vals.into_iter().map(Cell::U32).collect())],
        }
    }

    /// Creates a string-valued property.
    pub fn string(name: &str, val: &str) -> Property {
        Property {
            name: name.to_string(),
            values: vec![PropValue::Str(val.to_string())],
        }
    }

    /// Creates an empty (flag) property.
    pub fn flag(name: &str) -> Property {
        Property {
            name: name.to_string(),
            values: Vec::new(),
        }
    }

    /// The property's single `u32` value, if it is exactly `<n>`.
    pub fn as_u32(&self) -> Option<u32> {
        match self.values.as_slice() {
            [PropValue::Cells(cs)] => match cs.as_slice() {
                [Cell::U32(v)] => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    /// The property's first string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        self.values.iter().find_map(|v| match v {
            PropValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// All literal cells across all `Cells` values, flattened, or `None`
    /// if any cell is an unresolved reference or a value is not a cell
    /// list.
    pub fn flat_cells(&self) -> Option<Vec<u32>> {
        self.literal_cells().map(Iterator::collect)
    }

    /// [`Property::flat_cells`] as an iterator, without the vector.
    pub fn literal_cells(&self) -> Option<impl Iterator<Item = u32> + Clone + '_> {
        let literal = |v: &PropValue| match v {
            PropValue::Cells(cs) => cs.iter().all(|c| matches!(c, Cell::U32(_))),
            _ => false,
        };
        if !self.values.iter().all(literal) {
            return None;
        }
        let cells = self
            .values
            .iter()
            .flat_map(|v| match v {
                PropValue::Cells(cs) => cs.as_slice(),
                _ => &[],
            })
            .filter_map(|c| match c {
                Cell::U32(x) => Some(*x),
                Cell::Ref(_) => None,
            });
        Some(cells)
    }
}

/// A device node: a name (with optional `@unit-address`), labels,
/// properties and children. Property and child order is preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Node {
    /// Full node name including the unit address, e.g.
    /// `memory@40000000`. The root node's name is empty.
    pub name: String,
    /// Labels attached to this node (`uart0:`).
    pub labels: Vec<String>,
    /// Properties in source order.
    pub properties: Vec<Property>,
    /// Child nodes in source order.
    pub children: Vec<Node>,
}

impl Node {
    /// Creates an empty node with the given name.
    pub fn new(name: &str) -> Node {
        Node {
            name: name.to_string(),
            ..Node::default()
        }
    }

    /// The name part before `@`.
    pub fn base_name(&self) -> &str {
        self.name.split('@').next().unwrap_or("")
    }

    /// The unit address part after `@`, if present.
    pub fn unit_address(&self) -> Option<&str> {
        let mut it = self.name.splitn(2, '@');
        it.next();
        it.next()
    }

    /// Looks up a property by name.
    pub fn prop(&self, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Mutable property lookup.
    pub fn prop_mut(&mut self, name: &str) -> Option<&mut Property> {
        self.properties.iter_mut().find(|p| p.name == name)
    }

    /// Shorthand for `prop(name).and_then(Property::as_u32)`.
    pub fn prop_u32(&self, name: &str) -> Option<u32> {
        self.prop(name).and_then(Property::as_u32)
    }

    /// Shorthand for `prop(name).and_then(Property::as_str)`.
    pub fn prop_str(&self, name: &str) -> Option<&str> {
        self.prop(name).and_then(Property::as_str)
    }

    /// Inserts or replaces a property (by name).
    pub fn set_prop(&mut self, prop: Property) {
        match self.prop_mut(&prop.name) {
            Some(existing) => *existing = prop,
            None => self.properties.push(prop),
        }
    }

    /// Removes a property by name; returns it if present.
    pub fn remove_prop(&mut self, name: &str) -> Option<Property> {
        let i = self.properties.iter().position(|p| p.name == name)?;
        Some(self.properties.remove(i))
    }

    /// Looks up a direct child by full name, or by base name when the
    /// query contains no `@` and exactly one child matches.
    pub fn child(&self, name: &str) -> Option<&Node> {
        if let Some(c) = self.children.iter().find(|c| c.name == name) {
            return Some(c);
        }
        if !name.contains('@') {
            let mut matches = self.children.iter().filter(|c| c.base_name() == name);
            if let (Some(c), None) = (matches.next(), matches.next()) {
                return Some(c);
            }
        }
        None
    }

    /// Mutable child lookup with the same name semantics as
    /// [`Node::child`].
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Node> {
        if self.children.iter().any(|c| c.name == name) {
            return self.children.iter_mut().find(|c| c.name == name);
        }
        if !name.contains('@') {
            let count = self
                .children
                .iter()
                .filter(|c| c.base_name() == name)
                .count();
            if count == 1 {
                return self.children.iter_mut().find(|c| c.base_name() == name);
            }
        }
        None
    }

    /// Gets or creates a direct child with the exact given name.
    pub fn ensure_child(&mut self, name: &str) -> &mut Node {
        let i = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(Node::new(name));
                self.children.len() - 1
            }
        };
        &mut self.children[i]
    }

    /// Removes a direct child by name; returns it if present.
    pub fn remove_child(&mut self, name: &str) -> Option<Node> {
        let i = self.children.iter().position(|c| c.name == name)?;
        Some(self.children.remove(i))
    }

    /// Merges `other` into this node: other's properties overwrite
    /// same-named ones, children are merged recursively by name, labels
    /// are unioned. This is the semantics of writing the same node twice
    /// in DTS source (and of delta `modifies`).
    pub fn merge(&mut self, other: Node) {
        self.merge_into(other, &mut ());
    }

    /// [`Node::merge`], telling `sink` where each of `other`'s labels
    /// lands.
    pub(crate) fn merge_into(&mut self, other: Node, sink: &mut impl LabelSink) {
        for l in other.labels {
            sink.label(&l);
            if !self.labels.contains(&l) {
                self.labels.push(l);
            }
        }
        for p in other.properties {
            self.set_prop(p);
        }
        // Delta `modifies` often patch properties only: skip the index.
        if other.children.is_empty() {
            return;
        }
        // Size for every child being new, as when the first root block
        // merges into the empty tree, rather than regrowing both.
        self.children.reserve(other.children.len());
        let mut index = ChildIndex::new(&self.children);
        index.first.reserve(other.children.len());
        for c in other.children {
            index.insert_into(&mut self.children, c, sink);
        }
    }

    /// Depth-first iteration over this node and all descendants, with
    /// each node's path.
    pub fn walk(&self) -> Vec<(NodePath, &Node)> {
        let mut out = Vec::new();
        let Ok(()) = self.visit((), |v, _| {
            out.push((v.path.to_node_path(), v.node));
            Ok::<_, Infallible>(())
        });
        out
    }

    /// Visits this node and its descendants depth first, parents before
    /// children, without materialising paths: each [`Visit`] borrows
    /// its path from one buffer reused across the walk. `f` also gets
    /// the state its parent's call returned (`state` for this node) and
    /// returns the state handed to the node's children; an `Err` stops
    /// the walk and is returned.
    ///
    /// A node with an empty name has the root path `/`, as the root
    /// does, and its children's paths start over from it.
    ///
    /// # Errors
    ///
    /// The first `Err` that `f` returns.
    pub fn visit<'t, S, E>(
        &'t self,
        state: S,
        mut f: impl FnMut(&Visit<'_, 't>, &S) -> Result<S, E>,
    ) -> Result<(), E> {
        let mut path = Vec::new();
        if !self.name.is_empty() {
            path.push(self.name.as_str());
        }
        let defaults = (
            crate::cells::DEFAULT_ADDRESS_CELLS,
            crate::cells::DEFAULT_SIZE_CELLS,
        );
        visit_rec(self, &mut path, 0, defaults, &state, &mut f)
    }

    /// Total number of nodes in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Node::size).sum::<usize>()
    }
}

/// Name → position of the first child with that name, so inserting or
/// merging a child costs one hash lookup instead of a scan of its
/// siblings. It describes one `children` vector and must be rebuilt
/// with [`ChildIndex::new`] after anything but [`ChildIndex::insert`]
/// changes that vector.
///
/// The index keeps each name's keyed hash, not the name, so a name is
/// allocated only in its node: a lookup confirms the name at the
/// position found, and only two different names with one 64-bit hash
/// fall back to a scan of the siblings.
#[derive(Debug, Default)]
pub(crate) struct ChildIndex {
    first: HashMap<u64, usize>,
}

impl ChildIndex {
    /// Indexes `children`; a repeated name maps to its first position.
    pub(crate) fn new(children: &[Node]) -> ChildIndex {
        let mut index = ChildIndex::default();
        index.first.reserve(children.len());
        for (i, c) in children.iter().enumerate() {
            let h = index.first.hasher().hash_one(&c.name);
            index.first.entry(h).or_insert(i);
        }
        index
    }

    /// The position of the first child named `name`, and `name`'s hash.
    fn find(&self, children: &[Node], name: &str) -> (Option<usize>, u64) {
        let h = self.first.hasher().hash_one(name);
        let at = match self.first.get(&h) {
            Some(&i) if children[i].name == name => Some(i),
            Some(_) => children.iter().position(|c| c.name == name),
            None => None,
        };
        (at, h)
    }

    /// Merges `child` into the first same-named node of `children`, or
    /// appends it when there is none.
    pub(crate) fn insert(&mut self, children: &mut Vec<Node>, child: Node) {
        self.insert_into(children, child, &mut ());
    }

    /// [`ChildIndex::insert`], telling `sink` where each of `child`'s
    /// labels lands.
    fn insert_into<S: LabelSink>(&mut self, children: &mut Vec<Node>, child: Node, sink: &mut S) {
        match self.find(children, &child.name) {
            (Some(i), _) => {
                sink.enter(i);
                children[i].merge_into(child, sink);
                sink.leave();
            }
            (None, h) => {
                let i = children.len();
                self.first.entry(h).or_insert(i);
                children.push(child);
                if S::NOTES {
                    sink.enter(i);
                    note_labels(&children[i], sink);
                    sink.leave();
                }
            }
        }
    }
}

/// Told, during a merge, which labels land on which node: the node
/// being merged into is the one reached by the [`LabelSink::enter`]s
/// not yet undone by [`LabelSink::leave`], counted from the node the
/// merge started at.
pub(crate) trait LabelSink {
    /// `false` for a sink that ignores every call.
    const NOTES: bool = true;
    /// Descends to child `child` of the current node.
    fn enter(&mut self, child: usize);
    /// Returns to the parent of the current node.
    fn leave(&mut self);
    /// `label` is on the current node.
    fn label(&mut self, label: &str);
}

/// The sink of a plain merge, which tracks nothing.
impl LabelSink for () {
    const NOTES: bool = false;
    fn enter(&mut self, _child: usize) {}
    fn leave(&mut self) {}
    fn label(&mut self, _label: &str) {}
}

/// Tells `sink` every label of `node`'s subtree, `node` being current.
pub(crate) fn note_labels(node: &Node, sink: &mut impl LabelSink) {
    for l in &node.labels {
        sink.label(l);
    }
    for (i, c) in node.children.iter().enumerate() {
        sink.enter(i);
        note_labels(c, sink);
        sink.leave();
    }
}

/// One node met by [`Node::visit`].
#[derive(Debug, Clone, Copy)]
pub struct Visit<'v, 't> {
    /// The node.
    pub node: &'t Node,
    /// The node's absolute path.
    pub path: PathRef<'v>,
    /// The `(#address-cells, #size-cells)` the node's parent declares,
    /// under which the node's `reg` is read; the specification's
    /// defaults for the node the walk starts at.
    pub parent_cells: (u32, u32),
}

fn visit_rec<'t, S, E, F>(
    node: &'t Node,
    path: &mut Vec<&'t str>,
    base: usize,
    parent_cells: (u32, u32),
    state: &S,
    f: &mut F,
) -> Result<(), E>
where
    F: FnMut(&Visit<'_, 't>, &S) -> Result<S, E>,
{
    let visit = Visit {
        node,
        path: PathRef(&path[base..]),
        parent_cells,
    };
    let child_state = f(&visit, state)?;
    if node.children.is_empty() {
        return Ok(());
    }
    let cells = crate::cells::cell_counts(node);
    for c in &node.children {
        let len = path.len();
        let base = if c.name.is_empty() {
            len
        } else {
            path.push(&c.name);
            base
        };
        visit_rec(c, path, base, cells, &child_state, f)?;
        path.truncate(len);
    }
    Ok(())
}

/// A borrowed absolute node path, as segments; displays like
/// [`NodePath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRef<'a>(&'a [&'a str]);

impl PathRef<'_> {
    /// The path as an owned [`NodePath`].
    pub fn to_node_path(self) -> NodePath {
        NodePath(self.0.iter().map(|s| s.to_string()).collect())
    }
}

impl From<PathRef<'_>> for String {
    /// The path as text, allocated once at its exact length.
    fn from(path: PathRef<'_>) -> String {
        let len = path.0.iter().map(|s| s.len() + 1).sum::<usize>().max(1);
        let mut out = String::with_capacity(len);
        if path.0.is_empty() {
            out.push('/');
        }
        for seg in path.0 {
            out.push('/');
            out.push_str(seg);
        }
        out
    }
}

impl fmt::Display for PathRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("/");
        }
        for seg in self.0 {
            f.write_str("/")?;
            f.write_str(seg)?;
        }
        Ok(())
    }
}

/// An absolute node path such as `/cpus/cpu@0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodePath(Vec<String>);

impl NodePath {
    /// The root path `/`.
    pub fn root() -> NodePath {
        NodePath(Vec::new())
    }

    /// Parses a path from `/`-separated segments.
    pub fn parse(s: &str) -> NodePath {
        NodePath(
            s.split('/')
                .filter(|seg| !seg.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }

    /// The path one level deeper.
    pub fn join(&self, segment: &str) -> NodePath {
        let mut v = self.0.clone();
        v.push(segment.to_string());
        NodePath(v)
    }

    /// Path segments.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<NodePath> {
        if self.0.is_empty() {
            None
        } else {
            Some(NodePath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// The last segment, or `None` for the root.
    pub fn leaf(&self) -> Option<&str> {
        self.0.last().map(String::as_str)
    }

    /// `true` for the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "/");
        }
        for seg in &self.0 {
            write!(f, "/{seg}")?;
        }
        Ok(())
    }
}

/// A whole DeviceTree: the root node plus document-level metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DeviceTree {
    /// The root node (its `name` is empty).
    pub root: Node,
    /// Whether the source carried a `/dts-v1/;` tag.
    pub has_version_tag: bool,
    /// Memory reservation entries (`/memreserve/`), kept for FDT
    /// encoding. Each entry is `(address, size)`.
    pub reservations: Vec<(u64, u64)>,
}

impl DeviceTree {
    /// Creates an empty tree with a version tag.
    pub fn new() -> DeviceTree {
        DeviceTree {
            has_version_tag: true,
            ..DeviceTree::default()
        }
    }

    /// Finds a node by absolute path (string or [`NodePath`]).
    pub fn find(&self, path: &str) -> Option<&Node> {
        self.find_path(&NodePath::parse(path))
    }

    /// Finds a node by parsed path.
    pub fn find_path(&self, path: &NodePath) -> Option<&Node> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur.child(seg)?;
        }
        Some(cur)
    }

    /// Mutable path lookup.
    pub fn find_mut(&mut self, path: &str) -> Option<&mut Node> {
        self.find_path_mut(&NodePath::parse(path))
    }

    /// Mutable parsed-path lookup.
    pub fn find_path_mut(&mut self, path: &NodePath) -> Option<&mut Node> {
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.child_mut(seg)?;
        }
        Some(cur)
    }

    /// Gets or creates the node at `path`, creating intermediate nodes.
    pub fn ensure(&mut self, path: &str) -> &mut Node {
        let path = NodePath::parse(path);
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.ensure_child(seg);
        }
        cur
    }

    /// Removes the node at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`DtsError::NoSuchNode`] if the path (or its parent) does
    /// not resolve, and a [`DtsError::BadValue`] when asked to remove the
    /// root.
    pub fn remove(&mut self, path: &str) -> Result<Node, DtsError> {
        let parsed = NodePath::parse(path);
        let Some(leaf) = parsed.leaf().map(str::to_string) else {
            return Err(DtsError::BadValue {
                path: "/".into(),
                message: "cannot remove the root node".into(),
            });
        };
        // A path with a leaf always has a parent, but spell the
        // fallback out rather than panic on a future invariant slip.
        let Some(parent) = parsed.parent() else {
            return Err(DtsError::NoSuchNode {
                path: path.to_string(),
            });
        };
        let parent_node = self
            .find_path_mut(&parent)
            .ok_or_else(|| DtsError::NoSuchNode {
                path: parent.to_string(),
            })?;
        // Resolve base-name queries to the exact child name first.
        let exact = parent_node
            .child(&leaf)
            .map(|c| c.name.clone())
            .ok_or_else(|| DtsError::NoSuchNode {
                path: path.to_string(),
            })?;
        parent_node
            .remove_child(&exact)
            .ok_or_else(|| DtsError::NoSuchNode {
                path: path.to_string(),
            })
    }

    /// Resolves a `&label` to the path of the first node, depth first,
    /// carrying it.
    pub fn resolve_label(&self, label: &str) -> Option<NodePath> {
        let found = self.root.visit((), |v, _| {
            if v.node.labels.iter().any(|l| l == label) {
                Err(v.path.to_node_path())
            } else {
                Ok(())
            }
        });
        found.err()
    }

    /// All nodes with their paths, depth first.
    pub fn nodes(&self) -> Vec<(NodePath, &Node)> {
        self.root.walk()
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Resolves an alias from the `/aliases` node (DeviceTree spec
    /// §3.3): the property value is an absolute node path. Returns the
    /// aliased node, or `None` when the alias or its target is absent.
    ///
    /// ```
    /// let t = llhsc_dts::parse(r#"/ {
    ///     aliases { serial0 = "/uart@20000000"; };
    ///     uart@20000000 { };
    /// };"#).unwrap();
    /// assert_eq!(t.resolve_alias("serial0").unwrap().name, "uart@20000000");
    /// ```
    pub fn resolve_alias(&self, alias: &str) -> Option<&Node> {
        let aliases = self.find("/aliases")?;
        let path = aliases.prop_str(alias)?;
        self.find(path)
    }

    /// Assigns phandles to every labelled node and returns the mapping
    /// label → phandle value (used by the FDT encoder to resolve
    /// references): depth first, each label not seen before takes the
    /// next number from 1.
    pub(crate) fn phandle_map(&self) -> HashMap<&str, u32> {
        fn rec<'t>(node: &'t Node, map: &mut HashMap<&'t str, u32>) {
            for l in &node.labels {
                let next = map.len() as u32 + 1;
                map.entry(l.as_str()).or_insert(next);
            }
            for c in &node.children {
                rec(c, map);
            }
        }
        let mut map = HashMap::new();
        rec(&self.root, &mut map);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceTree {
        let mut t = DeviceTree::new();
        {
            let mem = t.ensure("/memory@40000000");
            mem.set_prop(Property::string("device_type", "memory"));
            mem.set_prop(Property::cells("reg", [0, 0x4000_0000, 0, 0x2000_0000]));
        }
        {
            let cpu0 = t.ensure("/cpus/cpu@0");
            cpu0.set_prop(Property::string("compatible", "arm,cortex-a53"));
            cpu0.set_prop(Property::cells("reg", [0]));
        }
        t.ensure("/cpus/cpu@1");
        t
    }

    #[test]
    fn path_parse_display() {
        let p = NodePath::parse("/cpus/cpu@0");
        assert_eq!(p.segments(), ["cpus", "cpu@0"]);
        assert_eq!(p.to_string(), "/cpus/cpu@0");
        assert_eq!(NodePath::root().to_string(), "/");
        assert_eq!(p.parent().unwrap().to_string(), "/cpus");
        assert_eq!(p.leaf(), Some("cpu@0"));
        assert!(NodePath::root().is_root());
    }

    #[test]
    fn find_and_ensure() {
        let t = sample();
        assert!(t.find("/memory@40000000").is_some());
        assert!(t.find("/cpus/cpu@0").is_some());
        assert!(t.find("/nope").is_none());
        assert_eq!(t.size(), 5); // root, memory, cpus, cpu@0, cpu@1
    }

    #[test]
    fn base_name_lookup_when_unique() {
        let t = sample();
        // "memory" has a unique match even without the unit address.
        assert!(t.find("/memory").is_some());
        // "cpu" is ambiguous under /cpus.
        assert!(t.find("/cpus/cpu").is_none());
    }

    #[test]
    fn unit_address_split() {
        let n = Node::new("memory@40000000");
        assert_eq!(n.base_name(), "memory");
        assert_eq!(n.unit_address(), Some("40000000"));
        let n = Node::new("cpus");
        assert_eq!(n.unit_address(), None);
    }

    #[test]
    fn prop_accessors() {
        let t = sample();
        let mem = t.find("/memory@40000000").unwrap();
        assert_eq!(mem.prop_str("device_type"), Some("memory"));
        assert_eq!(
            mem.prop("reg").unwrap().flat_cells().unwrap(),
            vec![0, 0x4000_0000, 0, 0x2000_0000]
        );
        let cpu = t.find("/cpus/cpu@0").unwrap();
        assert_eq!(cpu.prop_u32("reg"), Some(0));
    }

    #[test]
    fn set_prop_replaces() {
        let mut n = Node::new("x");
        n.set_prop(Property::cells("reg", [1]));
        n.set_prop(Property::cells("reg", [2]));
        assert_eq!(n.properties.len(), 1);
        assert_eq!(n.prop_u32("reg"), Some(2));
    }

    #[test]
    fn remove_prop_and_child() {
        let mut t = sample();
        let mem = t.find_mut("/memory@40000000").unwrap();
        assert!(mem.remove_prop("device_type").is_some());
        assert!(mem.remove_prop("device_type").is_none());
        assert!(t.remove("/cpus/cpu@1").is_ok());
        assert!(t.find("/cpus/cpu@1").is_none());
        assert!(matches!(
            t.remove("/cpus/cpu@1"),
            Err(DtsError::NoSuchNode { .. })
        ));
    }

    #[test]
    fn remove_root_rejected() {
        let mut t = sample();
        assert!(matches!(t.remove("/"), Err(DtsError::BadValue { .. })));
    }

    #[test]
    fn merge_semantics() {
        let mut a = Node::new("uart@20000000");
        a.set_prop(Property::cells("reg", [0x2000_0000, 0x1000]));
        a.ensure_child("sub");
        let mut b = Node::new("uart@20000000");
        b.set_prop(Property::cells("reg", [0x3000_0000, 0x1000]));
        b.set_prop(Property::string("status", "okay"));
        b.labels.push("uart1".into());
        let mut bsub = Node::new("sub");
        bsub.set_prop(Property::flag("present"));
        b.children.push(bsub);
        a.merge(b);
        assert_eq!(
            a.prop("reg").unwrap().flat_cells().unwrap(),
            vec![0x3000_0000, 0x1000]
        );
        assert_eq!(a.prop_str("status"), Some("okay"));
        assert_eq!(a.labels, vec!["uart1".to_string()]);
        assert_eq!(a.children.len(), 1);
        assert!(a.children[0].prop("present").is_some());
    }

    #[test]
    fn walk_paths() {
        let t = sample();
        let paths: Vec<String> = t.nodes().iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            paths,
            vec![
                "/",
                "/memory@40000000",
                "/cpus",
                "/cpus/cpu@0",
                "/cpus/cpu@1"
            ]
        );
    }

    #[test]
    fn labels_resolve() {
        let mut t = sample();
        t.find_mut("/cpus/cpu@0")
            .unwrap()
            .labels
            .push("boot_cpu".into());
        assert_eq!(
            t.resolve_label("boot_cpu").unwrap().to_string(),
            "/cpus/cpu@0"
        );
        assert!(t.resolve_label("nope").is_none());
        let ph = t.phandle_map();
        assert_eq!(ph.get("boot_cpu"), Some(&1));
    }

    #[test]
    fn alias_resolution() {
        let mut t = DeviceTree::new();
        t.ensure("/uart@20000000");
        let aliases = t.ensure("/aliases");
        aliases.set_prop(Property::string("serial0", "/uart@20000000"));
        aliases.set_prop(Property::string("ghost", "/nope"));
        assert_eq!(t.resolve_alias("serial0").unwrap().name, "uart@20000000");
        assert!(t.resolve_alias("ghost").is_none());
        assert!(t.resolve_alias("unknown").is_none());
    }

    #[test]
    fn display_values() {
        let v = PropValue::Cells(vec![Cell::U32(0x10), Cell::Ref("clk".into())]);
        assert_eq!(v.to_string(), "<0x10 &clk>");
        let v = PropValue::Bytes(vec![0xde, 0xad]);
        assert_eq!(v.to_string(), "[de ad]");
        let v = PropValue::Str("ok".into());
        assert_eq!(v.to_string(), "\"ok\"");
    }
}
