//! Condensed graphs: the metacomputing substrate WebCom coordinates
//! (Morrison \[21\], WebCom \[22\]).
//!
//! Condensed graphs unify availability-driven, coercion-driven and
//! control-driven computing: nodes fire when their operands arrive;
//! condensed nodes carry whole graphs as operators and expand when
//! fired; conditionals coerce only the taken branch into evaluation.
//!
//! * [`value`] — values carried on arcs;
//! * [`graph`] — templates, validation (reference/arity/cycle checks),
//!   topological waves, the fluent [`graph::GraphBuilder`];
//! * [`engine`] — the wave evaluator, which hands each wave's
//!   primitives to the executor as one batch, and the
//!   [`engine::OpExecutor`] seam through which Secure WebCom injects
//!   middleware invocation with authorisation.

pub mod dot;
pub mod engine;
pub mod graph;
pub mod value;

pub use dot::to_dot;
pub use engine::{evaluate_arith, ArithExecutor, Engine, EngineError, OpExecutor};
pub use graph::{GraphBuilder, GraphError, GraphTemplate, NodeId, NodeSpec, Operator, Source};
pub use value::Value;
