//! The feature-model data structure and its propositional encoding.

use std::collections::HashMap;
use std::fmt;

use llhsc_smt::{Context, TermId};

/// Handle to a feature inside a [`FeatureModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureId(pub(crate) u32);

impl FeatureId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a feature's children decompose (the edge decorations of §II-B,
/// extended with cardinality groups per Czarnecki-style notations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GroupKind {
    /// Children are independent; each is mandatory or optional on its
    /// own.
    #[default]
    And,
    /// If the parent is selected, at least one child must be.
    Or,
    /// If the parent is selected, exactly one child must be.
    Xor,
    /// If the parent is selected, between `min` and `max` children must
    /// be (inclusive). `Or` is `Card{1, n}`, `Xor` is `Card{1, 1}`.
    Card {
        /// Minimum selected children.
        min: u32,
        /// Maximum selected children.
        max: u32,
    },
}

/// One feature node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Feature {
    /// Human-readable feature name (unique within the model).
    pub name: String,
    /// Optional features may be deselected even when the parent is
    /// selected (only meaningful under an [`GroupKind::And`] parent).
    pub optional: bool,
    /// Abstract features structure the model but map to no artifact
    /// (paper: `uarts`, `vEthernet`).
    pub is_abstract: bool,
    /// Decomposition of this feature's children.
    pub group: GroupKind,
    /// In a multi-product model, children of this group are exclusive
    /// resources: at most one VM may select each child (§IV-A).
    pub cross_vm_exclusive: bool,
    /// Parent feature; `None` for the root.
    pub parent: Option<FeatureId>,
    /// Children in insertion order.
    pub children: Vec<FeatureId>,
}

/// A propositional formula over features, for cross-tree constraints
/// beyond simple requires/excludes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The feature is selected.
    Feat(FeatureId),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional.
    Iff(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Sugar for `Implies(Feat(a), Feat(b))`.
    pub fn requires(a: FeatureId, b: FeatureId) -> Formula {
        Formula::Implies(Box::new(Formula::Feat(a)), Box::new(Formula::Feat(b)))
    }

    /// Sugar for `¬(a ∧ b)`.
    pub fn excludes(a: FeatureId, b: FeatureId) -> Formula {
        Formula::Not(Box::new(Formula::And(vec![
            Formula::Feat(a),
            Formula::Feat(b),
        ])))
    }
}

/// A cross-hierarchy composition rule (§II-B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CrossConstraint {
    /// Selecting `.0` requires selecting `.1`.
    Requires(FeatureId, FeatureId),
    /// `.0` and `.1` are mutually exclusive.
    Excludes(FeatureId, FeatureId),
    /// An arbitrary propositional rule.
    Rule(Formula),
}

/// A feature model: a feature tree plus cross-tree constraints.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureModel {
    features: Vec<Feature>,
    names: HashMap<String, FeatureId>,
    constraints: Vec<CrossConstraint>,
}

impl std::hash::Hash for FeatureModel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `names` is an index derived from `features`; hashing it would
        // be redundant and HashMap iteration order is unstable anyway.
        self.features.hash(state);
        self.constraints.hash(state);
    }
}

/// 64-bit FNV-1a with a fixed seed — the same stable hasher as
/// `llhsc_dts::hash::Fnv1a`, duplicated privately because feature
/// models deliberately do not depend on the DeviceTree crate.
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl FeatureModel {
    /// A stable content hash of the model (features and constraints):
    /// deterministic across processes, so it can serve as part of a
    /// content-addressed cache key for allocation results.
    pub fn stable_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.hash(&mut h);
        h.finish()
    }
}

impl FeatureModel {
    /// Creates a model containing only the root feature.
    pub fn new(root_name: &str) -> FeatureModel {
        let root = Feature {
            name: root_name.to_string(),
            optional: false,
            is_abstract: true,
            group: GroupKind::And,
            cross_vm_exclusive: false,
            parent: None,
            children: Vec::new(),
        };
        let mut names = HashMap::new();
        names.insert(root_name.to_string(), FeatureId(0));
        FeatureModel {
            features: vec![root],
            names,
            constraints: Vec::new(),
        }
    }

    /// The root feature.
    pub fn root(&self) -> FeatureId {
        FeatureId(0)
    }

    /// Number of features (including the root).
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` if the model has only a root.
    pub fn is_empty(&self) -> bool {
        self.features.len() <= 1
    }

    fn add_feature(&mut self, parent: FeatureId, name: &str, optional: bool) -> FeatureId {
        assert!(
            !self.names.contains_key(name),
            "duplicate feature name {name:?}"
        );
        let id = FeatureId(self.features.len() as u32);
        self.features.push(Feature {
            name: name.to_string(),
            optional,
            is_abstract: false,
            group: GroupKind::And,
            cross_vm_exclusive: false,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.features[parent.index()].children.push(id);
        self.names.insert(name.to_string(), id);
        id
    }

    /// Adds a mandatory child feature.
    ///
    /// # Panics
    ///
    /// Panics on duplicate feature names (they identify features in
    /// products and diagnostics).
    pub fn add_mandatory(&mut self, parent: FeatureId, name: &str) -> FeatureId {
        self.add_feature(parent, name, false)
    }

    /// Adds an optional child feature.
    pub fn add_optional(&mut self, parent: FeatureId, name: &str) -> FeatureId {
        self.add_feature(parent, name, true)
    }

    /// Sets how `feature`'s children decompose.
    pub fn set_group(&mut self, feature: FeatureId, group: GroupKind) {
        self.features[feature.index()].group = group;
    }

    /// Marks a feature abstract (no artifact mapping).
    pub fn set_abstract(&mut self, feature: FeatureId, is_abstract: bool) {
        self.features[feature.index()].is_abstract = is_abstract;
    }

    /// Marks `feature`'s children as exclusive resources across VMs in a
    /// multi-product model (§IV-A).
    pub fn set_cross_vm_exclusive(&mut self, feature: FeatureId, exclusive: bool) {
        self.features[feature.index()].cross_vm_exclusive = exclusive;
    }

    /// Adds a `requires` cross-tree constraint.
    pub fn requires(&mut self, from: FeatureId, to: FeatureId) {
        self.constraints.push(CrossConstraint::Requires(from, to));
    }

    /// Adds an `excludes` cross-tree constraint.
    pub fn excludes(&mut self, a: FeatureId, b: FeatureId) {
        self.constraints.push(CrossConstraint::Excludes(a, b));
    }

    /// Adds an arbitrary propositional cross-tree rule.
    pub fn add_rule(&mut self, rule: Formula) {
        self.constraints.push(CrossConstraint::Rule(rule));
    }

    /// Looks a feature up by name.
    pub fn by_name(&self, name: &str) -> Option<FeatureId> {
        self.names.get(name).copied()
    }

    /// The feature's data.
    pub fn feature(&self, id: FeatureId) -> &Feature {
        &self.features[id.index()]
    }

    /// The feature's name.
    pub fn name(&self, id: FeatureId) -> &str {
        &self.features[id.index()].name
    }

    /// All feature ids, root first.
    pub fn ids(&self) -> impl Iterator<Item = FeatureId> + '_ {
        (0..self.features.len() as u32).map(FeatureId)
    }

    /// The cross-tree constraints.
    pub fn constraints(&self) -> &[CrossConstraint] {
        &self.constraints
    }

    /// Like [`FeatureModel::encode`], but guards every model rule with
    /// a fresh marker assumption and returns `(vars, markers)`, where
    /// each marker carries a human-readable description of its rule.
    /// Checking with all markers assumed and peeling unsat cores
    /// explains *why* a model is void — which is how
    /// [`Analyzer::explain_void`](crate::Analyzer::explain_void) works.
    pub fn encode_with_markers(
        &self,
        ctx: &mut Context,
    ) -> (HashMap<FeatureId, TermId>, Vec<(TermId, String)>) {
        let vars: HashMap<FeatureId, TermId> = self
            .ids()
            .map(|id| (id, ctx.bool_var(self.name(id))))
            .collect();
        let mut markers: Vec<(TermId, String)> = Vec::new();
        let guard = |ctx: &mut Context,
                     markers: &mut Vec<(TermId, String)>,
                     rule: TermId,
                     description: String| {
            let m = ctx.bool_var(&format!("fm-rule#{}", markers.len()));
            let guarded = ctx.implies(m, rule);
            ctx.assert(guarded);
            markers.push((m, description));
        };

        for id in self.ids() {
            let f = self.feature(id);
            let fv = vars[&id];
            if let Some(p) = f.parent {
                let imp = ctx.implies(fv, vars[&p]);
                guard(
                    ctx,
                    &mut markers,
                    imp,
                    format!("{} requires its parent {}", f.name, self.name(p)),
                );
            }
            if f.children.is_empty() {
                continue;
            }
            let child_vars: Vec<TermId> = f.children.iter().map(|c| vars[c]).collect();
            match f.group {
                GroupKind::And => {
                    for (ci, &cv) in f.children.iter().zip(&child_vars) {
                        if !self.feature(*ci).optional {
                            let iff = ctx.iff(cv, fv);
                            guard(
                                ctx,
                                &mut markers,
                                iff,
                                format!("{} is mandatory under {}", self.name(*ci), f.name),
                            );
                        }
                    }
                }
                GroupKind::Or => {
                    let any = ctx.or(child_vars.clone());
                    let imp = ctx.implies(fv, any);
                    guard(
                        ctx,
                        &mut markers,
                        imp,
                        format!("{} needs at least one child (or-group)", f.name),
                    );
                }
                GroupKind::Xor => {
                    let any = ctx.or(child_vars.clone());
                    let one = ctx.at_most(child_vars.clone(), 1);
                    let imp = ctx.implies(fv, any);
                    let rule = ctx.and([imp, one]);
                    guard(
                        ctx,
                        &mut markers,
                        rule,
                        format!("{} needs exactly one child (xor-group)", f.name),
                    );
                }
                GroupKind::Card { min, max } => {
                    let lo = ctx.at_least(child_vars.clone(), min as usize);
                    let hi = ctx.at_most(child_vars.clone(), max as usize);
                    let window = ctx.and([lo, hi]);
                    let rule = ctx.implies(fv, window);
                    guard(
                        ctx,
                        &mut markers,
                        rule,
                        format!("{} needs {min}..{max} children (cardinality)", f.name),
                    );
                }
            }
        }
        for c in &self.constraints {
            let (term, description) = match c {
                CrossConstraint::Requires(a, b) => (
                    ctx.implies(vars[a], vars[b]),
                    format!("{} requires {}", self.name(*a), self.name(*b)),
                ),
                CrossConstraint::Excludes(a, b) => {
                    let both = ctx.and([vars[a], vars[b]]);
                    (
                        ctx.not(both),
                        format!("{} excludes {}", self.name(*a), self.name(*b)),
                    )
                }
                CrossConstraint::Rule(f) => (
                    self.encode_formula(ctx, f, &vars),
                    "cross-tree rule".to_string(),
                ),
            };
            guard(ctx, &mut markers, term, description);
        }
        (vars, markers)
    }

    /// Encodes the model into an SMT context using Batory's rules,
    /// prefixing every variable name with `prefix` (used by
    /// [`MultiModel`](crate::MultiModel) to instantiate per-VM copies).
    /// Returns the feature → term mapping. The root is *not* asserted
    /// true here; callers decide (a product of the model always contains
    /// the root, a VM slot in a multi-model may be empty).
    pub fn encode(&self, ctx: &mut Context, prefix: &str) -> HashMap<FeatureId, TermId> {
        let vars: HashMap<FeatureId, TermId> = self
            .ids()
            .map(|id| {
                let v = ctx.bool_var(&format!("{prefix}{}", self.name(id)));
                (id, v)
            })
            .collect();

        for id in self.ids() {
            let f = self.feature(id);
            let fv = vars[&id];
            // child => parent
            if let Some(p) = f.parent {
                let imp = ctx.implies(fv, vars[&p]);
                ctx.assert(imp);
            }
            if f.children.is_empty() {
                continue;
            }
            let child_vars: Vec<TermId> = f.children.iter().map(|c| vars[c]).collect();
            match f.group {
                GroupKind::And => {
                    for (ci, &cv) in f.children.iter().zip(&child_vars) {
                        if !self.feature(*ci).optional {
                            // mandatory child <=> parent
                            let iff = ctx.iff(cv, fv);
                            ctx.assert(iff);
                        }
                    }
                }
                GroupKind::Or => {
                    let any = ctx.or(child_vars.clone());
                    let imp = ctx.implies(fv, any);
                    ctx.assert(imp);
                }
                GroupKind::Xor => {
                    let any = ctx.or(child_vars.clone());
                    let imp = ctx.implies(fv, any);
                    ctx.assert(imp);
                    for i in 0..child_vars.len() {
                        for j in (i + 1)..child_vars.len() {
                            let both = ctx.and([child_vars[i], child_vars[j]]);
                            let neither = ctx.not(both);
                            ctx.assert(neither);
                        }
                    }
                }
                GroupKind::Card { min, max } => {
                    let lo = ctx.at_least(child_vars.clone(), min as usize);
                    let hi = ctx.at_most(child_vars.clone(), max as usize);
                    let window = ctx.and([lo, hi]);
                    let imp = ctx.implies(fv, window);
                    ctx.assert(imp);
                }
            }
        }

        for c in &self.constraints {
            let term = match c {
                CrossConstraint::Requires(a, b) => ctx.implies(vars[a], vars[b]),
                CrossConstraint::Excludes(a, b) => {
                    let both = ctx.and([vars[a], vars[b]]);
                    ctx.not(both)
                }
                CrossConstraint::Rule(f) => self.encode_formula(ctx, f, &vars),
            };
            ctx.assert(term);
        }
        vars
    }

    fn encode_formula(
        &self,
        ctx: &mut Context,
        f: &Formula,
        vars: &HashMap<FeatureId, TermId>,
    ) -> TermId {
        match f {
            Formula::Feat(id) => vars[id],
            Formula::Not(inner) => {
                let t = self.encode_formula(ctx, inner, vars);
                ctx.not(t)
            }
            Formula::And(parts) => {
                let ts: Vec<TermId> = parts
                    .iter()
                    .map(|p| self.encode_formula(ctx, p, vars))
                    .collect();
                ctx.and(ts)
            }
            Formula::Or(parts) => {
                let ts: Vec<TermId> = parts
                    .iter()
                    .map(|p| self.encode_formula(ctx, p, vars))
                    .collect();
                ctx.or(ts)
            }
            Formula::Implies(a, b) => {
                let (ta, tb) = (
                    self.encode_formula(ctx, a, vars),
                    self.encode_formula(ctx, b, vars),
                );
                ctx.implies(ta, tb)
            }
            Formula::Iff(a, b) => {
                let (ta, tb) = (
                    self.encode_formula(ctx, a, vars),
                    self.encode_formula(ctx, b, vars),
                );
                ctx.iff(ta, tb)
            }
        }
    }
}

impl fmt::Display for FeatureModel {
    /// Renders the tree with FODA-ish decorations, one feature per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            fm: &FeatureModel,
            id: FeatureId,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let feat = fm.feature(id);
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            let opt = if feat.optional { "?" } else { "" };
            let abs = if feat.is_abstract { " (abstract)" } else { "" };
            let grp = match feat.group {
                GroupKind::And => String::new(),
                GroupKind::Or => " [or]".to_string(),
                GroupKind::Xor => " [xor]".to_string(),
                GroupKind::Card { min, max } => format!(" [{min}..{max}]"),
            };
            let grp = grp.as_str();
            let excl = if feat.cross_vm_exclusive {
                " [exclusive]"
            } else {
                ""
            };
            writeln!(f, "{}{opt}{abs}{grp}{excl}", feat.name)?;
            for &c in &feat.children {
                rec(fm, c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, self.root(), 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_smt::CheckResult;

    #[test]
    fn build_structure() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let b = fm.add_optional(r, "b");
        assert_eq!(fm.len(), 3);
        assert_eq!(fm.by_name("a"), Some(a));
        assert_eq!(fm.feature(b).parent, Some(r));
        assert!(!fm.feature(a).optional);
        assert!(fm.feature(b).optional);
        assert_eq!(fm.feature(r).children, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "duplicate feature name")]
    fn duplicate_names_panic() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        fm.add_mandatory(r, "a");
        fm.add_mandatory(r, "a");
    }

    #[test]
    fn encode_mandatory_propagates() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_mandatory(r, "a");
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        assert_eq!(ctx.check(), CheckResult::Sat);
        assert_eq!(ctx.model().unwrap().eval_bool(vars[&a]), Some(true));
    }

    #[test]
    fn encode_xor_exactly_one() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let g = fm.add_mandatory(r, "g");
        fm.set_group(g, GroupKind::Xor);
        let x = fm.add_optional(g, "x");
        let y = fm.add_optional(g, "y");
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        // Selecting both children is impossible.
        ctx.push();
        ctx.assert(vars[&x]);
        ctx.assert(vars[&y]);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        // Selecting neither is impossible (g mandatory).
        ctx.push();
        let nx = ctx.not(vars[&x]);
        let ny = ctx.not(vars[&y]);
        ctx.assert(nx);
        ctx.assert(ny);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
    }

    #[test]
    fn encode_or_at_least_one() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let g = fm.add_mandatory(r, "g");
        fm.set_group(g, GroupKind::Or);
        let x = fm.add_optional(g, "x");
        let y = fm.add_optional(g, "y");
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        // Both selected is fine under OR.
        ctx.push();
        ctx.assert(vars[&x]);
        ctx.assert(vars[&y]);
        assert_eq!(ctx.check(), CheckResult::Sat);
        ctx.pop();
        // Neither is not.
        let nx = ctx.not(vars[&x]);
        let ny = ctx.not(vars[&y]);
        ctx.assert(nx);
        ctx.assert(ny);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    fn child_requires_parent() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let p = fm.add_optional(r, "p");
        let c = fm.add_optional(p, "c");
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        ctx.assert(vars[&c]);
        let np = ctx.not(vars[&p]);
        ctx.assert(np);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    fn cross_constraints_apply() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_optional(r, "a");
        let b = fm.add_optional(r, "b");
        let c = fm.add_optional(r, "c");
        fm.requires(a, b);
        fm.excludes(b, c);
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        ctx.push();
        ctx.assert(vars[&a]);
        let nb = ctx.not(vars[&b]);
        ctx.assert(nb);
        assert_eq!(ctx.check(), CheckResult::Unsat);
        ctx.pop();
        ctx.assert(vars[&b]);
        ctx.assert(vars[&c]);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    fn formula_rules() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_optional(r, "a");
        let b = fm.add_optional(r, "b");
        // a <-> not b
        fm.add_rule(Formula::Iff(
            Box::new(Formula::Feat(a)),
            Box::new(Formula::Not(Box::new(Formula::Feat(b)))),
        ));
        let mut ctx = Context::new();
        let vars = fm.encode(&mut ctx, "");
        ctx.assert(vars[&r]);
        ctx.assert(vars[&a]);
        ctx.assert(vars[&b]);
        assert_eq!(ctx.check(), CheckResult::Unsat);
    }

    #[test]
    fn display_tree() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let g = fm.add_mandatory(r, "cpus");
        fm.set_group(g, GroupKind::Xor);
        fm.set_cross_vm_exclusive(g, true);
        fm.add_optional(g, "cpu@0");
        let s = fm.to_string();
        assert!(s.contains("Root (abstract)"));
        assert!(s.contains("cpus [xor] [exclusive]"));
        assert!(s.contains("cpu@0?"));
    }

    #[test]
    fn prefixed_encodings_are_independent() {
        let mut fm = FeatureModel::new("Root");
        let r = fm.root();
        let a = fm.add_optional(r, "a");
        let mut ctx = Context::new();
        let v1 = fm.encode(&mut ctx, "vm1:");
        let v2 = fm.encode(&mut ctx, "vm2:");
        ctx.assert(v1[&r]);
        ctx.assert(v2[&r]);
        ctx.assert(v1[&a]);
        let n2 = ctx.not(v2[&a]);
        ctx.assert(n2);
        assert_eq!(ctx.check(), CheckResult::Sat);
    }
}
