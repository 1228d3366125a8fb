//! # odbis-rules
//!
//! A forward-chaining production-rule engine — the reproduction's
//! substitute for Drools in the ODBIS technical architecture (§3.3): "a
//! SaaS platform is shared by several customers that have different
//! business processes, the definition of a business rules engine is
//! essential for the orchestration of services."
//!
//! Facts live in a [`WorkingMemory`]; [`Rule`]s declare patterns (with
//! variable bindings joining facts) and declarative actions (assert,
//! modify, retract, log). The [`RuleEngine`] runs the match-resolve-act
//! cycle to fixpoint with salience-based conflict resolution and
//! refraction.
//!
//! ```
//! use odbis_rules::{Action, Fact, Pattern, Rule, RuleEngine, TestOp, WorkingMemory};
//!
//! let mut engine = RuleEngine::new();
//! engine.add_rule(
//!     Rule::new("discount")
//!         .when(Pattern::on("Order").test("amount", TestOp::Gt, 100i64).bind("a", "amount"))
//!         .then(Action::Log("apply discount to {a}".into())),
//! ).unwrap();
//! let mut wm = WorkingMemory::new();
//! wm.insert(Fact::new("Order").with("amount", 250i64));
//! let report = engine.run(&mut wm).unwrap();
//! assert_eq!(report.firings(), 1);
//! ```

#![warn(missing_docs)]

mod engine;
mod fact;
mod rule;

pub use engine::{firings_by_rule, tconst, tvar, FireReport, NaiveMatcher, RuleEngine, RuleError};
pub use fact::{Fact, FactId, WorkingMemory};
pub use rule::{Action, Activation, Bindings, Operand, Pattern, Rule, TemplateValue, Test, TestOp};
