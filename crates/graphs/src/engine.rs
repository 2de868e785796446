//! The condensed-graph evaluation engine.
//!
//! Evaluation is availability-driven: a template's nodes are grouped into
//! topological waves ([`crate::graph::GraphTemplate::levels`]). Within a
//! wave, constants, condensed nodes and `IfEl` branches evaluate inline
//! (condensed nodes and branches recurse into their subgraphs, which is
//! the coercion-driven part of the model), and every primitive of the
//! wave is handed to the [`OpExecutor`] as one batch
//! ([`OpExecutor::execute_wave`]). An executor that can fire a batch
//! concurrently — Secure WebCom's master pipelines it down the mux to
//! its clients — makes the wave cost one round trip instead of one per
//! node.
//!
//! Primitives are resolved by an [`OpExecutor`] — the seam where Secure
//! WebCom plugs in middleware component invocation with authorisation.

use crate::graph::{GraphTemplate, NodeId, Operator, Source};
use crate::value::Value;
use std::fmt;

/// Engine errors.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A primitive the executor does not provide.
    UnknownPrimitive(String),
    /// A primitive rejected its arguments.
    BadArguments {
        /// The primitive.
        op: String,
        /// The reason.
        reason: String,
    },
    /// The executor refused to run the operation (e.g. authorisation
    /// denied by the WebCom stack).
    Refused {
        /// The primitive.
        op: String,
        /// The reason.
        reason: String,
    },
    /// An `IfEl` condition was not a boolean.
    NonBooleanCondition {
        /// The node.
        node: NodeId,
        /// What the condition evaluated to.
        got: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownPrimitive(op) => write!(f, "unknown primitive `{op}`"),
            EngineError::BadArguments { op, reason } => {
                write!(f, "primitive `{op}` rejected arguments: {reason}")
            }
            EngineError::Refused { op, reason } => write!(f, "`{op}` refused: {reason}"),
            EngineError::NonBooleanCondition { node, got } => {
                write!(f, "IfEl node {node}: condition evaluated to {got}, not bool")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Executes named primitives.
pub trait OpExecutor {
    /// Runs `op` on `args`.
    fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError>;

    /// Runs one wave's primitives, which are independent of each other;
    /// results are positionally aligned with `calls`. The default runs
    /// them one after another through [`execute`](Self::execute) —
    /// [`ArithExecutor`] keeps it, evaluating locally and sequentially.
    /// Override it to fire the wave concurrently.
    fn execute_wave(&self, calls: &[(&str, Vec<Value>)]) -> Vec<Result<Value, EngineError>> {
        calls
            .iter()
            .map(|(op, args)| self.execute(op, args))
            .collect()
    }
}

/// The built-in arithmetic/logic executor used by tests, examples and
/// benches.
#[derive(Default)]
pub struct ArithExecutor;

impl OpExecutor for ArithExecutor {
    fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
        let int2 = |f: fn(i64, i64) -> i64| -> Result<Value, EngineError> {
            match (args.first().and_then(Value::as_int), args.get(1).and_then(Value::as_int)) {
                (Some(a), Some(b)) => Ok(Value::Int(f(a, b))),
                _ => Err(EngineError::BadArguments {
                    op: op.to_string(),
                    reason: format!("expected two ints, got {args:?}"),
                }),
            }
        };
        match op {
            "id" => args.first().cloned().ok_or_else(|| EngineError::BadArguments {
                op: op.into(),
                reason: "expected one argument".into(),
            }),
            "add" => int2(i64::wrapping_add),
            "sub" => int2(i64::wrapping_sub),
            "mul" => int2(i64::wrapping_mul),
            "max" => int2(i64::max),
            "min" => int2(i64::min),
            "lt" => match (args.first().and_then(Value::as_int), args.get(1).and_then(Value::as_int)) {
                (Some(a), Some(b)) => Ok(Value::Bool(a < b)),
                _ => Err(EngineError::BadArguments {
                    op: op.into(),
                    reason: "expected two ints".into(),
                }),
            },
            "eq" => Ok(Value::Bool(args.first() == args.get(1))),
            "concat" => {
                let mut s = String::new();
                for a in args {
                    s.push_str(&a.to_string());
                }
                Ok(Value::Str(s))
            }
            "list" => Ok(Value::List(args.to_vec())),
            "sum_list" => match args.first() {
                Some(Value::List(items)) => {
                    let mut total = 0i64;
                    for v in items {
                        total = total.wrapping_add(v.as_int().ok_or_else(|| {
                            EngineError::BadArguments {
                                op: op.into(),
                                reason: "non-int in list".into(),
                            }
                        })?);
                    }
                    Ok(Value::Int(total))
                }
                _ => Err(EngineError::BadArguments {
                    op: op.into(),
                    reason: "expected a list".into(),
                }),
            },
            other => Err(EngineError::UnknownPrimitive(other.to_string())),
        }
    }
}

/// The evaluation engine.
pub struct Engine<'a, E: OpExecutor> {
    executor: &'a E,
}

impl<'a, E: OpExecutor> Engine<'a, E> {
    /// An engine over `executor`.
    pub fn new(executor: &'a E) -> Self {
        Engine { executor }
    }

    /// Evaluates `template` with `params`, wave by wave, handing each
    /// wave's primitives to the executor as one batch. When nodes of a
    /// wave fail, the error of the lowest node id is returned.
    ///
    /// # Panics
    /// Panics if `params.len() != template.arity` — callers validate
    /// arity when building graphs.
    pub fn evaluate(&self, template: &GraphTemplate, params: &[Value]) -> Result<Value, EngineError> {
        assert_eq!(
            params.len(),
            template.arity,
            "graph `{}` expects {} params",
            template.name,
            template.arity
        );
        let mut results: Vec<Option<Value>> = vec![None; template.nodes.len()];
        let read = |s: &Source, results: &[Option<Value>]| -> Value {
            match *s {
                Source::Param(p) => params[p].clone(),
                Source::Node(n) => results[n]
                    .clone()
                    .expect("wave ordering guarantees availability"),
            }
        };
        for wave in template.levels() {
            let mut outcomes: Vec<(NodeId, Result<Value, EngineError>)> =
                Vec::with_capacity(wave.len());
            let mut calls: Vec<(&str, Vec<Value>)> = Vec::new();
            let mut callers: Vec<NodeId> = Vec::new();
            for &i in &wave {
                let node = &template.nodes[i];
                let args: Vec<Value> = node.inputs.iter().map(|s| read(s, &results)).collect();
                let value = match &node.operator {
                    Operator::Const(v) => Ok(v.clone()),
                    Operator::Primitive(op) => {
                        calls.push((op, args));
                        callers.push(i);
                        continue;
                    }
                    Operator::Condensed(sub) => self.evaluate(sub, &args),
                    Operator::IfEl {
                        then_branch,
                        else_branch,
                    } => match args[0].as_bool() {
                        Some(cond) => {
                            let branch = if cond { then_branch } else { else_branch };
                            self.evaluate(branch, &args[1..])
                        }
                        None => Err(EngineError::NonBooleanCondition {
                            node: i,
                            got: args[0].to_string(),
                        }),
                    },
                };
                outcomes.push((i, value));
            }
            if !calls.is_empty() {
                let fired = self.executor.execute_wave(&calls);
                assert_eq!(
                    fired.len(),
                    calls.len(),
                    "execute_wave must answer every call"
                );
                outcomes.extend(callers.into_iter().zip(fired));
            }
            // In node-id order, so the error returned is the lowest
            // node's.
            outcomes.sort_by_key(|&(i, _)| i);
            for (i, value) in outcomes {
                results[i] = Some(value?);
            }
        }
        Ok(read(&template.output, &results))
    }
}

/// Convenience: evaluate with the built-in arithmetic executor.
pub fn evaluate_arith(template: &GraphTemplate, params: &[Value]) -> Result<Value, EngineError> {
    Engine::new(&ArithExecutor).evaluate(template, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn add_two() -> GraphTemplate {
        let mut b = GraphBuilder::new("add-two", 2);
        let s = b.primitive("sum", "add", vec![Source::Param(0), Source::Param(1)]);
        b.output(Source::Node(s)).unwrap()
    }

    #[test]
    fn evaluates_flat_graph() {
        let t = add_two();
        assert_eq!(
            evaluate_arith(&t, &[Value::Int(2), Value::Int(40)]).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn evaluates_diamond() {
        // (p0+1) * (p0+2)
        let mut b = GraphBuilder::new("diamond", 1);
        let one = b.constant("one", 1i64);
        let two = b.constant("two", 2i64);
        let l = b.primitive("l", "add", vec![Source::Param(0), Source::Node(one)]);
        let r = b.primitive("r", "add", vec![Source::Param(0), Source::Node(two)]);
        let m = b.primitive("m", "mul", vec![Source::Node(l), Source::Node(r)]);
        let t = b.output(Source::Node(m)).unwrap();
        assert_eq!(evaluate_arith(&t, &[Value::Int(3)]).unwrap(), Value::Int(20));
    }

    #[test]
    fn condensed_expansion() {
        let sub = Arc::new(add_two());
        let mut b = GraphBuilder::new("outer", 2);
        let c = b.condensed("call", sub, vec![Source::Param(0), Source::Param(1)]);
        let d = b.primitive("dbl", "mul", vec![Source::Node(c), Source::Node(c)]);
        let t = b.output(Source::Node(d)).unwrap();
        assert_eq!(
            evaluate_arith(&t, &[Value::Int(3), Value::Int(4)]).unwrap(),
            Value::Int(49)
        );
    }

    #[test]
    fn ifel_chooses_branch() {
        let then_b = Arc::new({
            let mut b = GraphBuilder::new("then", 1);
            let n = b.primitive("inc", "add", vec![Source::Param(0), Source::Node(1)]);
            b.constant("one", 1i64);
            b.output(Source::Node(n)).unwrap()
        });
        let else_b = Arc::new({
            let mut b = GraphBuilder::new("else", 1);
            let n = b.primitive("dec", "sub", vec![Source::Param(0), Source::Node(1)]);
            b.constant("one", 1i64);
            b.output(Source::Node(n)).unwrap()
        });
        let mut b = GraphBuilder::new("outer", 2);
        let cond = b.primitive("lt", "lt", vec![Source::Param(0), Source::Param(1)]);
        let choice = b.if_el(
            "choose",
            then_b,
            else_b,
            vec![Source::Node(cond), Source::Param(0)],
        );
        let t = b.output(Source::Node(choice)).unwrap();
        // 3 < 10 -> then -> 3+1
        assert_eq!(
            evaluate_arith(&t, &[Value::Int(3), Value::Int(10)]).unwrap(),
            Value::Int(4)
        );
        // 10 < 3 is false -> else -> 10-1
        assert_eq!(
            evaluate_arith(&t, &[Value::Int(10), Value::Int(3)]).unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn ifel_only_fires_taken_branch() {
        // The untaken branch's primitive must not run (coercion-driven).
        struct Counting {
            calls: AtomicUsize,
        }
        impl OpExecutor for Counting {
            fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
                if op == "boom" {
                    self.calls.fetch_add(1, Ordering::SeqCst);
                    return Ok(Value::Unit);
                }
                ArithExecutor.execute(op, args)
            }
        }
        let then_b = Arc::new({
            let mut b = GraphBuilder::new("then", 0);
            let c = b.constant("ok", 1i64);
            b.output(Source::Node(c)).unwrap()
        });
        let else_b = Arc::new({
            let mut b = GraphBuilder::new("else", 0);
            let n = b.primitive("boom", "boom", vec![]);
            b.output(Source::Node(n)).unwrap()
        });
        let mut b = GraphBuilder::new("outer", 0);
        let cond = b.constant("true", true);
        let choice = b.if_el("choose", then_b, else_b, vec![Source::Node(cond)]);
        let t = b.output(Source::Node(choice)).unwrap();
        let exec = Counting {
            calls: AtomicUsize::new(0),
        };
        assert_eq!(
            Engine::new(&exec).evaluate(&t, &[]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(exec.calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn errors_propagate() {
        let mut b = GraphBuilder::new("bad", 0);
        let n = b.primitive("nope", "no-such-op", vec![]);
        let t = b.output(Source::Node(n)).unwrap();
        assert!(matches!(
            evaluate_arith(&t, &[]),
            Err(EngineError::UnknownPrimitive(_))
        ));
        let mut b = GraphBuilder::new("badargs", 0);
        let s = b.constant("s", "str");
        let n = b.primitive("add", "add", vec![Source::Node(s), Source::Node(s)]);
        let t = b.output(Source::Node(n)).unwrap();
        assert!(matches!(
            evaluate_arith(&t, &[]),
            Err(EngineError::BadArguments { .. })
        ));
    }

    #[test]
    fn non_boolean_condition_is_an_error() {
        let branch = Arc::new({
            let mut b = GraphBuilder::new("b", 0);
            let c = b.constant("c", 1i64);
            b.output(Source::Node(c)).unwrap()
        });
        let mut b = GraphBuilder::new("outer", 0);
        let cond = b.constant("notbool", 7i64);
        let choice = b.if_el("choose", branch.clone(), branch, vec![Source::Node(cond)]);
        let t = b.output(Source::Node(choice)).unwrap();
        assert!(matches!(
            evaluate_arith(&t, &[]),
            Err(EngineError::NonBooleanCondition { .. })
        ));
    }

    #[test]
    fn wide_fanout_parallel_wave() {
        // 64 independent nodes in one wave, summed pairwise after.
        let mut b = GraphBuilder::new("fanout", 1);
        let leaves: Vec<_> = (0..64)
            .map(|i| {
                let c = b.constant(&format!("c{i}"), i as i64);
                b.primitive(&format!("n{i}"), "add", vec![Source::Param(0), Source::Node(c)])
            })
            .collect();
        let l = b.primitive(
            "gather",
            "list",
            leaves.iter().map(|&n| Source::Node(n)).collect(),
        );
        let s = b.primitive("sum", "sum_list", vec![Source::Node(l)]);
        let t = b.output(Source::Node(s)).unwrap();
        let expected: i64 = (0..64).map(|i| 10 + i).sum();
        assert_eq!(
            evaluate_arith(&t, &[Value::Int(10)]).unwrap(),
            Value::Int(expected)
        );
    }

    #[test]
    fn deep_recursion_through_condensed_nodes() {
        // Chain of 32 nested condensed increments.
        let mut inner: Arc<GraphTemplate> = Arc::new({
            let mut b = GraphBuilder::new("inc", 1);
            let one = b.constant("one", 1i64);
            let n = b.primitive("add", "add", vec![Source::Param(0), Source::Node(one)]);
            b.output(Source::Node(n)).unwrap()
        });
        for depth in 0..31 {
            inner = Arc::new({
                let mut b = GraphBuilder::new(&format!("wrap{depth}"), 1);
                let c = b.condensed("call", inner.clone(), vec![Source::Param(0)]);
                let one = b.constant("one", 1i64);
                let n = b.primitive("add", "add", vec![Source::Node(c), Source::Node(one)]);
                b.output(Source::Node(n)).unwrap()
            });
        }
        assert_eq!(
            evaluate_arith(&inner, &[Value::Int(0)]).unwrap(),
            Value::Int(32)
        );
    }

    /// Records the primitive names of every `execute_wave` call.
    #[derive(Default)]
    struct Recording {
        waves: std::sync::Mutex<Vec<Vec<String>>>,
    }

    impl OpExecutor for Recording {
        fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
            ArithExecutor.execute(op, args)
        }

        fn execute_wave(&self, calls: &[(&str, Vec<Value>)]) -> Vec<Result<Value, EngineError>> {
            let names = calls.iter().map(|(op, _)| op.to_string()).collect();
            self.waves.lock().unwrap().push(names);
            calls
                .iter()
                .map(|(op, args)| self.execute(op, args))
                .collect()
        }
    }

    impl Recording {
        fn wave_sizes(&self) -> Vec<usize> {
            self.waves.lock().unwrap().iter().map(Vec::len).collect()
        }
    }

    #[test]
    fn fanout_fires_each_wave_as_one_batch() {
        // 32 leaves `add(p, c_i)` reduced pairwise: 63 primitives.
        let mut b = GraphBuilder::new("fanout", 1);
        let mut level: Vec<NodeId> = (0..32)
            .map(|i| {
                let c = b.constant(&format!("c{i}"), i as i64);
                b.primitive(
                    &format!("leaf{i}"),
                    "add",
                    vec![Source::Param(0), Source::Node(c)],
                )
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .enumerate()
                .map(|(j, pair)| {
                    let inputs = pair.iter().map(|&n| Source::Node(n)).collect();
                    b.primitive(&format!("sum{}_{j}", level.len()), "add", inputs)
                })
                .collect();
        }
        let t = b.output(Source::Node(level[0])).unwrap();
        let exec = Recording::default();
        let expected: i64 = (0..32).map(|i| 5 + i).sum();
        assert_eq!(
            Engine::new(&exec).evaluate(&t, &[Value::Int(5)]).unwrap(),
            Value::Int(expected)
        );
        // The constants' wave fires nothing; each later wave is one call.
        assert_eq!(exec.wave_sizes(), vec![32, 16, 8, 4, 2, 1]);
    }

    #[test]
    fn ifel_in_a_batched_wave_fires_only_the_taken_branch() {
        let then_b = Arc::new({
            let mut b = GraphBuilder::new("then", 1);
            let one = b.constant("one", 1i64);
            let n = b.primitive("inc", "add", vec![Source::Param(0), Source::Node(one)]);
            b.output(Source::Node(n)).unwrap()
        });
        let else_b = Arc::new({
            let mut b = GraphBuilder::new("else", 1);
            let n = b.primitive("boom", "boom", vec![Source::Param(0)]);
            b.output(Source::Node(n)).unwrap()
        });
        // One wave: two primitives around the IfEl node, whose
        // condition is the third parameter.
        let mut b = GraphBuilder::new("outer", 3);
        let left = b.primitive("left", "add", vec![Source::Param(0), Source::Param(1)]);
        let choice = b.if_el(
            "choose",
            then_b,
            else_b,
            vec![Source::Param(2), Source::Param(0)],
        );
        let right = b.primitive("right", "mul", vec![Source::Param(0), Source::Param(1)]);
        let l = b.primitive(
            "l",
            "list",
            vec![left, choice, right]
                .into_iter()
                .map(Source::Node)
                .collect(),
        );
        let t = b.output(Source::Node(l)).unwrap();
        let exec = Recording::default();
        assert_eq!(
            Engine::new(&exec)
                .evaluate(&t, &[Value::Int(3), Value::Int(4), Value::Bool(true)])
                .unwrap(),
            Value::List(vec![Value::Int(7), Value::Int(4), Value::Int(12)])
        );
        let waves = exec.waves.lock().unwrap().clone();
        // The taken branch's own wave, then the outer wave's batch.
        assert_eq!(
            waves[..2],
            [vec!["add".to_string()], vec!["add".into(), "mul".into()]]
        );
        assert!(waves.iter().flatten().all(|op| op != "boom"), "{waves:?}");
    }

    #[test]
    fn failing_wave_reports_the_lowest_node() {
        let failing_sub = Arc::new({
            let mut b = GraphBuilder::new("sub", 0);
            let n = b.primitive("sub", "sub-missing", vec![]);
            b.output(Source::Node(n)).unwrap()
        });
        // One wave: two failing primitives and a failing condensed node.
        let mut b = GraphBuilder::new("bad", 1);
        let low = b.primitive("low", "missing", vec![]);
        b.primitive("high", "add", vec![Source::Param(0), Source::Param(0)]);
        b.condensed("call", failing_sub, vec![]);
        let t = b.output(Source::Node(low)).unwrap();
        let exec = Recording::default();
        let err = Engine::new(&exec)
            .evaluate(&t, &[Value::Str("x".into())])
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownPrimitive("missing".into()));
        // Both primitives still went out in the wave's batch.
        assert!(exec.wave_sizes().contains(&2), "{:?}", exec.wave_sizes());
    }

    #[test]
    fn output_can_be_a_param() {
        let t = GraphBuilder::new("identity", 1)
            .output(Source::Param(0))
            .unwrap();
        assert_eq!(
            evaluate_arith(&t, &[Value::Str("x".into())]).unwrap(),
            Value::Str("x".into())
        );
    }
}
