//! The forward-chaining inference engine: match → agenda → fire, to
//! fixpoint, with refraction.

use std::collections::{HashMap, HashSet};

use odbis_storage::Value;

use crate::fact::{FactId, WorkingMemory};
use crate::rule::{Action, Activation, Bindings, Pattern, Rule};

/// Outcome of [`RuleEngine::run`].
#[derive(Debug, Clone, Default)]
pub struct FireReport {
    /// Rules fired, in firing order (rule name per firing).
    pub fired: Vec<String>,
    /// Lines emitted by [`Action::Log`].
    pub log: Vec<String>,
    /// Number of match cycles executed.
    pub cycles: usize,
}

impl FireReport {
    /// Number of rule firings.
    pub fn firings(&self) -> usize {
        self.fired.len()
    }
}

/// Errors from the rule engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// A rule with the same name is already defined.
    DuplicateRule(String),
    /// An action referenced a pattern index that does not exist.
    #[allow(missing_docs)] // self-documenting
    BadPatternIndex { rule: String, index: usize },
    /// The engine exceeded the firing limit (runaway rule set).
    FiringLimit(usize),
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::DuplicateRule(r) => write!(f, "duplicate rule {r}"),
            RuleError::BadPatternIndex { rule, index } => {
                write!(f, "rule {rule} action references pattern {index}")
            }
            RuleError::FiringLimit(n) => write!(f, "firing limit of {n} exceeded"),
        }
    }
}

impl std::error::Error for RuleError {}

/// The production-rule engine — the reproduction's substitute for Drools in
/// the ODBIS technical architecture (business-rules management for service
/// orchestration and performance management, §3.3).
#[derive(Debug, Clone)]
pub struct RuleEngine {
    rules: Vec<Rule>,
    /// Safety valve against non-terminating rule sets.
    pub firing_limit: usize,
}

impl Default for RuleEngine {
    fn default() -> Self {
        RuleEngine::new()
    }
}

impl RuleEngine {
    /// Empty engine.
    pub fn new() -> Self {
        RuleEngine {
            rules: Vec::new(),
            firing_limit: 100_000,
        }
    }

    /// Register a rule. Validates action pattern indices and name
    /// uniqueness.
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), RuleError> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(RuleError::DuplicateRule(rule.name));
        }
        for a in &rule.actions {
            let idx = match a {
                Action::Modify { pattern_index, .. } | Action::Retract { pattern_index } => {
                    Some(*pattern_index)
                }
                _ => None,
            };
            if let Some(i) = idx {
                if i >= rule.patterns.len() {
                    return Err(RuleError::BadPatternIndex {
                        rule: rule.name,
                        index: i,
                    });
                }
            }
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Registered rule count.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Run the match-resolve-act cycle to fixpoint over `wm`.
    pub fn run(&self, wm: &mut WorkingMemory) -> Result<FireReport, RuleError> {
        let mut report = FireReport::default();
        // refraction: (rule index, matched fact tuple) fires at most once
        let mut refraction: HashSet<(usize, Vec<FactId>)> = HashSet::new();
        loop {
            report.cycles += 1;
            let mut agenda: Vec<(usize, Activation)> = Vec::new();
            for (ri, rule) in self.rules.iter().enumerate() {
                for act in self.match_rule(rule, wm) {
                    if !refraction.contains(&(ri, act.facts.clone())) {
                        agenda.push((ri, act));
                    }
                }
            }
            if agenda.is_empty() {
                break;
            }
            // conflict resolution: salience desc, then rule order, then
            // most recent facts first
            agenda.sort_by(|(ra, a), (rb, b)| {
                b.salience
                    .cmp(&a.salience)
                    .then(ra.cmp(rb))
                    .then(b.facts.cmp(&a.facts))
            });
            let (ri, act) = agenda.into_iter().next().expect("agenda not empty");
            refraction.insert((ri, act.facts.clone()));
            self.fire(&self.rules[ri], &act, wm, &mut report);
            if report.fired.len() >= self.firing_limit {
                return Err(RuleError::FiringLimit(self.firing_limit));
            }
        }
        Ok(report)
    }

    fn match_rule(&self, rule: &Rule, wm: &WorkingMemory) -> Vec<Activation> {
        let mut out = Vec::new();
        let mut partial: Vec<(Vec<FactId>, Bindings)> = vec![(Vec::new(), Bindings::new())];
        for pattern in &rule.patterns {
            let mut next = Vec::new();
            for (facts, bindings) in &partial {
                for &fid in wm.ids_of_type(&pattern.fact_type) {
                    if facts.contains(&fid) {
                        continue; // a fact may satisfy only one pattern slot
                    }
                    let Some(fact) = wm.get(fid) else { continue };
                    if pattern.matches(fact, bindings) {
                        let mut nb = bindings.clone();
                        for (var, field) in &pattern.bindings {
                            nb.insert(var.clone(), fact.get(field));
                        }
                        let mut nf = facts.clone();
                        nf.push(fid);
                        next.push((nf, nb));
                    }
                }
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        for (facts, bindings) in partial {
            if facts.len() == rule.patterns.len() && !facts.is_empty() {
                out.push(Activation {
                    rule: rule.name.clone(),
                    facts,
                    bindings,
                    salience: rule.salience,
                });
            }
        }
        out
    }

    fn fire(&self, rule: &Rule, act: &Activation, wm: &mut WorkingMemory, report: &mut FireReport) {
        report.fired.push(rule.name.clone());
        for action in &rule.actions {
            match action {
                Action::Assert { fact_type, fields } => {
                    let mut fact = crate::fact::Fact::new(fact_type.clone());
                    for (name, tv) in fields {
                        fact.fields.insert(name.clone(), tv.resolve(&act.bindings));
                    }
                    wm.insert(fact);
                }
                Action::Modify {
                    pattern_index,
                    field,
                    value,
                } => {
                    let id = act.facts[*pattern_index];
                    wm.modify(id, field, value.resolve(&act.bindings));
                }
                Action::Retract { pattern_index } => {
                    wm.retract(act.facts[*pattern_index]);
                }
                Action::Log(msg) => {
                    let mut rendered = msg.clone();
                    for (var, val) in &act.bindings {
                        rendered = rendered.replace(&format!("{{{var}}}"), &val.render());
                    }
                    report.log.push(rendered);
                }
            }
        }
    }

    /// Evaluate a single pass of matching without firing (used by tests and
    /// by the admin service's "what would fire" preview).
    pub fn pending_activations(&self, wm: &WorkingMemory) -> Vec<Activation> {
        let mut out = Vec::new();
        for rule in &self.rules {
            out.extend(self.match_rule(rule, wm));
        }
        out
    }
}

/// Naive full re-matching engine used as the A3 ablation baseline: each call
/// to `run` re-scans all facts for all patterns each cycle *without* the
/// per-type index (simulating a non-indexed engine).
#[derive(Debug, Clone, Default)]
pub struct NaiveMatcher;

impl NaiveMatcher {
    /// Count matches of `pattern` by scanning every fact (no type index).
    pub fn count_matches(pattern: &Pattern, wm: &WorkingMemory) -> usize {
        let empty = Bindings::new();
        wm.iter()
            .filter(|(_, f)| pattern.matches(f, &empty))
            .count()
    }

    /// Count matches using the type index (the alpha-network path).
    pub fn count_matches_indexed(pattern: &Pattern, wm: &WorkingMemory) -> usize {
        let empty = Bindings::new();
        wm.ids_of_type(&pattern.fact_type)
            .iter()
            .filter(|&&id| wm.get(id).is_some_and(|f| pattern.matches(f, &empty)))
            .count()
    }
}

/// Convenience: a `HashMap` of counters keyed by rule name from a report.
pub fn firings_by_rule(report: &FireReport) -> HashMap<String, usize> {
    let mut out = HashMap::new();
    for r in &report.fired {
        *out.entry(r.clone()).or_insert(0) += 1;
    }
    out
}

/// Convenience constructor for constant template values.
pub fn tconst(v: impl Into<Value>) -> crate::rule::TemplateValue {
    crate::rule::TemplateValue::Const(v.into())
}

/// Convenience constructor for variable template values.
pub fn tvar(name: impl Into<String>) -> crate::rule::TemplateValue {
    crate::rule::TemplateValue::Var(name.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::rule::TestOp;

    #[test]
    fn single_rule_fires_once_per_fact() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("big-order")
                    .when(
                        Pattern::on("Order")
                            .test("amount", TestOp::Gt, 100i64)
                            .bind("amt", "amount"),
                    )
                    .then(Action::Log("big order of {amt}".into())),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("Order").with("amount", 50i64));
        wm.insert(Fact::new("Order").with("amount", 150i64));
        wm.insert(Fact::new("Order").with("amount", 200i64));
        let report = engine.run(&mut wm).unwrap();
        assert_eq!(report.firings(), 2);
        assert!(report.log.contains(&"big order of 150".to_string()));
    }

    #[test]
    fn chaining_via_asserted_facts() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("flag-high-usage")
                    .when(
                        Pattern::on("Usage")
                            .test("units", TestOp::Gt, 1000i64)
                            .bind("tenant", "tenant"),
                    )
                    .then(Action::Assert {
                        fact_type: "Alert".into(),
                        fields: vec![
                            ("tenant".into(), tvar("tenant")),
                            ("level".into(), tconst("WARN")),
                        ],
                    }),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::new("notify")
                    .when(Pattern::on("Alert").bind("t", "tenant"))
                    .then(Action::Log("notify {t}".into())),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(
            Fact::new("Usage")
                .with("tenant", "acme")
                .with("units", 5000i64),
        );
        let report = engine.run(&mut wm).unwrap();
        assert_eq!(report.firings(), 2);
        assert_eq!(report.log, vec!["notify acme".to_string()]);
        assert_eq!(wm.ids_of_type("Alert").len(), 1);
    }

    #[test]
    fn salience_orders_firing() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("low")
                    .salience(1)
                    .when(Pattern::on("X"))
                    .then(Action::Log("low".into())),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::new("high")
                    .salience(10)
                    .when(Pattern::on("X"))
                    .then(Action::Log("high".into())),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("X"));
        let report = engine.run(&mut wm).unwrap();
        assert_eq!(report.log, vec!["high".to_string(), "low".to_string()]);
    }

    #[test]
    fn join_patterns_with_variable_binding() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("match-order-to-tenant")
                    .when(
                        Pattern::on("Tenant")
                            .test("active", TestOp::Eq, true)
                            .bind("tid", "id"),
                    )
                    .when(Pattern::on("Order").test_var("tenant", TestOp::Eq, "tid"))
                    .then(Action::Log("order for {tid}".into())),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("Tenant").with("id", "t1").with("active", true));
        wm.insert(Fact::new("Tenant").with("id", "t2").with("active", false));
        wm.insert(Fact::new("Order").with("tenant", "t1"));
        wm.insert(Fact::new("Order").with("tenant", "t2"));
        let report = engine.run(&mut wm).unwrap();
        assert_eq!(report.firings(), 1);
        assert_eq!(report.log, vec!["order for t1".to_string()]);
    }

    #[test]
    fn modify_and_retract_actions() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("consume")
                    .when(Pattern::on("Work").test("done", TestOp::Eq, false))
                    .then(Action::Modify {
                        pattern_index: 0,
                        field: "done".into(),
                        value: tconst(true),
                    }),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::new("sweep")
                    .salience(-1)
                    .when(Pattern::on("Work").test("done", TestOp::Eq, true))
                    .then(Action::Retract { pattern_index: 0 }),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        for _ in 0..5 {
            wm.insert(Fact::new("Work").with("done", false));
        }
        let report = engine.run(&mut wm).unwrap();
        assert_eq!(report.firings(), 10);
        assert!(wm.is_empty());
    }

    #[test]
    fn runaway_rules_hit_firing_limit() {
        let mut engine = RuleEngine::new();
        engine.firing_limit = 50;
        engine
            .add_rule(
                Rule::new("loop")
                    .when(Pattern::on("Seed"))
                    .then(Action::Assert {
                        fact_type: "Seed".into(),
                        fields: vec![],
                    }),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("Seed"));
        assert!(matches!(
            engine.run(&mut wm),
            Err(RuleError::FiringLimit(50))
        ));
    }

    #[test]
    fn rule_validation() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(Rule::new("a").when(Pattern::on("X")))
            .unwrap();
        assert!(matches!(
            engine.add_rule(Rule::new("a")),
            Err(RuleError::DuplicateRule(_))
        ));
        assert!(matches!(
            engine.add_rule(
                Rule::new("bad")
                    .when(Pattern::on("X"))
                    .then(Action::Retract { pattern_index: 3 })
            ),
            Err(RuleError::BadPatternIndex { .. })
        ));
    }

    #[test]
    fn naive_and_indexed_matching_agree() {
        let mut wm = WorkingMemory::new();
        for i in 0..50i64 {
            wm.insert(Fact::new(if i % 2 == 0 { "A" } else { "B" }).with("v", i));
        }
        let p = Pattern::on("A").test("v", TestOp::Ge, 20i64);
        assert_eq!(
            NaiveMatcher::count_matches(&p, &wm),
            NaiveMatcher::count_matches_indexed(&p, &wm)
        );
    }

    #[test]
    fn pending_activations_preview() {
        let mut engine = RuleEngine::new();
        engine
            .add_rule(
                Rule::new("r")
                    .when(Pattern::on("X"))
                    .then(Action::Log("x".into())),
            )
            .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(Fact::new("X"));
        wm.insert(Fact::new("X"));
        assert_eq!(engine.pending_activations(&wm).len(), 2);
        // preview does not fire
        assert_eq!(wm.len(), 2);
    }
}
