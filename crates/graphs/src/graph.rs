//! Condensed graph definitions (Morrison \[21\]).
//!
//! A *condensed graph* unifies availability-, coercion- and
//! control-driven computing: nodes fire when their operands are
//! available; a **condensed** node's operator is itself a graph, which is
//! expanded (evaporated) when the node fires; and conditional nodes
//! steer which subgraph is coerced into evaluation.
//!
//! A [`GraphTemplate`] here is a parameterised DAG: each node names an
//! operator and draws inputs from graph parameters or other nodes. The
//! recursive cases — condensed subgraphs and `IfEl` branches — hold
//! whole templates as operators.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Index of a node within its template.
pub type NodeId = usize;

/// Where a node input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// The i-th parameter of the enclosing graph.
    Param(usize),
    /// The result of another node in the same template.
    Node(NodeId),
}

/// A node's operator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Operator {
    /// A literal value (no inputs).
    Const(Value),
    /// A named primitive resolved against the engine's executor. For
    /// WebCom, primitives are middleware component invocations.
    Primitive(String),
    /// A condensed node: fires by evaluating the inner graph with this
    /// node's inputs as the graph's parameters (availability-driven
    /// expansion).
    Condensed(Arc<GraphTemplate>),
    /// Conditional (control-driven): input 0 is the condition; the
    /// remaining inputs are passed as parameters to whichever branch is
    /// coerced into evaluation.
    IfEl {
        /// Evaluated when the condition is true.
        then_branch: Arc<GraphTemplate>,
        /// Evaluated when the condition is false.
        else_branch: Arc<GraphTemplate>,
    },
}

/// One node: an operator plus its input arcs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Diagnostic label.
    pub label: String,
    /// The operator.
    pub operator: Operator,
    /// Input arcs in operand order.
    pub inputs: Vec<Source>,
}

/// A parameterised condensed-graph template.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphTemplate {
    /// Human-readable name.
    pub name: String,
    /// Number of parameters (the E node's operands).
    pub arity: usize,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// Which node's value the graph returns (the X node's operand).
    pub output: Source,
}

/// Template validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node input refers to a nonexistent node.
    DanglingNode {
        /// The referring node.
        node: NodeId,
        /// The missing target.
        target: NodeId,
    },
    /// A node input refers to a parameter beyond the arity.
    BadParam {
        /// The referring node (or `None` for the output source).
        node: Option<NodeId>,
        /// The out-of-range parameter index.
        param: usize,
    },
    /// The output refers to a nonexistent node.
    BadOutput(NodeId),
    /// The template contains a dependency cycle through these nodes.
    Cycle(Vec<NodeId>),
    /// An `IfEl` node needs at least the condition input.
    MissingCondition(NodeId),
    /// A branch/condensed subgraph expects a different number of
    /// parameters than the node supplies.
    ArityMismatch {
        /// The node.
        node: NodeId,
        /// What the subgraph expects.
        expected: usize,
        /// What the node supplies.
        supplied: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingNode { node, target } => {
                write!(f, "node {node} reads nonexistent node {target}")
            }
            GraphError::BadParam { node, param } => match node {
                Some(n) => write!(f, "node {n} reads nonexistent parameter {param}"),
                None => write!(f, "output reads nonexistent parameter {param}"),
            },
            GraphError::BadOutput(n) => write!(f, "output reads nonexistent node {n}"),
            GraphError::Cycle(nodes) => write!(f, "dependency cycle through nodes {nodes:?}"),
            GraphError::MissingCondition(n) => write!(f, "IfEl node {n} has no condition input"),
            GraphError::ArityMismatch { node, expected, supplied } => write!(
                f,
                "node {node}: subgraph expects {expected} params, {supplied} supplied"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl GraphTemplate {
    /// Validates structure: references in range, acyclic, consistent
    /// subgraph arities. Recursively validates subgraphs.
    pub fn validate(&self) -> Result<(), GraphError> {
        // Reference checks.
        let check_source = |node: Option<NodeId>, s: &Source| -> Result<(), GraphError> {
            match *s {
                Source::Param(p) if p >= self.arity => Err(GraphError::BadParam { node, param: p }),
                Source::Node(t) if t >= self.nodes.len() => match node {
                    Some(n) => Err(GraphError::DanglingNode { node: n, target: t }),
                    None => Err(GraphError::BadOutput(t)),
                },
                _ => Ok(()),
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            for s in &n.inputs {
                check_source(Some(i), s)?;
            }
            match &n.operator {
                Operator::IfEl { then_branch, else_branch } => {
                    if n.inputs.is_empty() {
                        return Err(GraphError::MissingCondition(i));
                    }
                    let supplied = n.inputs.len() - 1;
                    for branch in [then_branch, else_branch] {
                        if branch.arity != supplied {
                            return Err(GraphError::ArityMismatch {
                                node: i,
                                expected: branch.arity,
                                supplied,
                            });
                        }
                        branch.validate()?;
                    }
                }
                Operator::Condensed(sub) => {
                    if sub.arity != n.inputs.len() {
                        return Err(GraphError::ArityMismatch {
                            node: i,
                            expected: sub.arity,
                            supplied: n.inputs.len(),
                        });
                    }
                    sub.validate()?;
                }
                Operator::Const(_) | Operator::Primitive(_) => {}
            }
        }
        check_source(None, &self.output)?;
        // Cycle check via DFS colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        fn dfs(
            nodes: &[NodeSpec],
            colour: &mut [Colour],
            stack: &mut Vec<NodeId>,
            i: NodeId,
        ) -> Result<(), GraphError> {
            colour[i] = Colour::Grey;
            stack.push(i);
            for s in &nodes[i].inputs {
                if let Source::Node(t) = *s {
                    match colour[t] {
                        Colour::Grey => {
                            let pos = stack.iter().position(|&n| n == t).unwrap_or(0);
                            return Err(GraphError::Cycle(stack[pos..].to_vec()));
                        }
                        Colour::White => dfs(nodes, colour, stack, t)?,
                        Colour::Black => {}
                    }
                }
            }
            stack.pop();
            colour[i] = Colour::Black;
            Ok(())
        }
        let mut colour = vec![Colour::White; self.nodes.len()];
        for i in 0..self.nodes.len() {
            if colour[i] == Colour::White {
                dfs(&self.nodes, &mut colour, &mut Vec::new(), i)?;
            }
        }
        Ok(())
    }

    /// Topological levels: level 0 nodes depend only on parameters and
    /// constants; level k nodes depend on nodes of levels `< k`. Nodes in
    /// one level can fire in parallel (availability-driven waves).
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut level = vec![0usize; n];
        // Since validate() guarantees acyclicity, a simple fixpoint over
        // topological order works; iterate until stable.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut want = 0;
                for s in &self.nodes[i].inputs {
                    if let Source::Node(t) = *s {
                        want = want.max(level[t] + 1);
                    }
                }
                if want > level[i] {
                    level[i] = want;
                    changed = true;
                }
            }
        }
        let max = level.iter().copied().max().map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); max];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// The primitive operator names used anywhere in the template
    /// (recursively) — WebCom interrogates this to schedule components.
    pub fn primitives(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_primitives(&mut out);
        out
    }

    fn collect_primitives(&self, out: &mut BTreeSet<String>) {
        for n in &self.nodes {
            match &n.operator {
                Operator::Primitive(p) => {
                    out.insert(p.clone());
                }
                Operator::Condensed(sub) => sub.collect_primitives(out),
                Operator::IfEl { then_branch, else_branch } => {
                    then_branch.collect_primitives(out);
                    else_branch.collect_primitives(out);
                }
                Operator::Const(_) => {}
            }
        }
    }
}

/// Fluent builder for templates.
pub struct GraphBuilder {
    name: String,
    arity: usize,
    nodes: Vec<NodeSpec>,
}

impl GraphBuilder {
    /// Starts a template with `arity` parameters.
    pub fn new(name: &str, arity: usize) -> Self {
        GraphBuilder {
            name: name.to_string(),
            arity,
            nodes: Vec::new(),
        }
    }

    /// Adds a constant node.
    pub fn constant(&mut self, label: &str, v: impl Into<Value>) -> NodeId {
        self.push(label, Operator::Const(v.into()), vec![])
    }

    /// Adds a primitive node.
    pub fn primitive(&mut self, label: &str, op: &str, inputs: Vec<Source>) -> NodeId {
        self.push(label, Operator::Primitive(op.to_string()), inputs)
    }

    /// Adds a condensed node.
    pub fn condensed(&mut self, label: &str, sub: Arc<GraphTemplate>, inputs: Vec<Source>) -> NodeId {
        self.push(label, Operator::Condensed(sub), inputs)
    }

    /// Adds a conditional node: `inputs[0]` is the condition.
    pub fn if_el(
        &mut self,
        label: &str,
        then_branch: Arc<GraphTemplate>,
        else_branch: Arc<GraphTemplate>,
        inputs: Vec<Source>,
    ) -> NodeId {
        self.push(
            label,
            Operator::IfEl {
                then_branch,
                else_branch,
            },
            inputs,
        )
    }

    fn push(&mut self, label: &str, operator: Operator, inputs: Vec<Source>) -> NodeId {
        self.nodes.push(NodeSpec {
            label: label.to_string(),
            operator,
            inputs,
        });
        self.nodes.len() - 1
    }

    /// Finishes the template, validating it.
    pub fn output(self, output: Source) -> Result<GraphTemplate, GraphError> {
        let t = GraphTemplate {
            name: self.name,
            arity: self.arity,
            nodes: self.nodes,
            output,
        };
        t.validate()?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_two() -> GraphTemplate {
        let mut b = GraphBuilder::new("add-two", 2);
        let sum = b.primitive("sum", "add", vec![Source::Param(0), Source::Param(1)]);
        b.output(Source::Node(sum)).unwrap()
    }

    #[test]
    fn builder_produces_valid_template() {
        let t = add_two();
        assert_eq!(t.arity, 2);
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.primitives().len(), 1);
    }

    #[test]
    fn dangling_references_rejected() {
        let t = GraphTemplate {
            name: "bad".into(),
            arity: 0,
            nodes: vec![NodeSpec {
                label: "n".into(),
                operator: Operator::Primitive("id".into()),
                inputs: vec![Source::Node(5)],
            }],
            output: Source::Node(0),
        };
        assert!(matches!(
            t.validate(),
            Err(GraphError::DanglingNode { node: 0, target: 5 })
        ));
    }

    #[test]
    fn bad_param_and_output_rejected() {
        let t = GraphTemplate {
            name: "bad".into(),
            arity: 1,
            nodes: vec![],
            output: Source::Param(3),
        };
        assert!(matches!(
            t.validate(),
            Err(GraphError::BadParam { node: None, param: 3 })
        ));
        let t2 = GraphTemplate {
            name: "bad2".into(),
            arity: 0,
            nodes: vec![],
            output: Source::Node(0),
        };
        assert!(matches!(t2.validate(), Err(GraphError::BadOutput(0))));
    }

    #[test]
    fn cycles_rejected() {
        let t = GraphTemplate {
            name: "cycle".into(),
            arity: 0,
            nodes: vec![
                NodeSpec {
                    label: "a".into(),
                    operator: Operator::Primitive("id".into()),
                    inputs: vec![Source::Node(1)],
                },
                NodeSpec {
                    label: "b".into(),
                    operator: Operator::Primitive("id".into()),
                    inputs: vec![Source::Node(0)],
                },
            ],
            output: Source::Node(0),
        };
        assert!(matches!(t.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn arity_mismatch_in_condensed() {
        let sub = Arc::new(add_two());
        let mut b = GraphBuilder::new("outer", 1);
        b.condensed("call", sub, vec![Source::Param(0)]); // needs 2
        let err = b.output(Source::Node(0)).unwrap_err();
        assert!(matches!(err, GraphError::ArityMismatch { expected: 2, supplied: 1, .. }));
    }

    #[test]
    fn ifel_requires_condition() {
        let branch = Arc::new({
            let mut b = GraphBuilder::new("branch", 0);
            b.constant("c", 1i64);
            b.output(Source::Node(0)).unwrap()
        });
        let mut b = GraphBuilder::new("outer", 0);
        b.if_el("choose", branch.clone(), branch, vec![]);
        assert!(matches!(
            b.output(Source::Node(0)),
            Err(GraphError::MissingCondition(0))
        ));
    }

    #[test]
    fn levels_partition_by_dependency_depth() {
        let mut b = GraphBuilder::new("diamond", 1);
        let a = b.primitive("a", "id", vec![Source::Param(0)]);
        let l = b.primitive("l", "id", vec![Source::Node(a)]);
        let r = b.primitive("r", "id", vec![Source::Node(a)]);
        let j = b.primitive("j", "add", vec![Source::Node(l), Source::Node(r)]);
        let t = b.output(Source::Node(j)).unwrap();
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![a]);
        assert_eq!(levels[1], vec![l, r]);
        assert_eq!(levels[2], vec![j]);
    }

    #[test]
    fn primitives_recurse_into_subgraphs() {
        let sub = Arc::new(add_two());
        let mut b = GraphBuilder::new("outer", 2);
        let c = b.condensed("call", sub, vec![Source::Param(0), Source::Param(1)]);
        let m = b.primitive("mul", "mul", vec![Source::Node(c), Source::Param(0)]);
        let t = b.output(Source::Node(m)).unwrap();
        let prims = t.primitives();
        assert!(prims.contains("add"));
        assert!(prims.contains("mul"));
        assert_eq!(prims.len(), 2);
    }
}
