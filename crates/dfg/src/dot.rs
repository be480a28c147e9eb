//! Graphviz DOT export for debugging and documentation.

use std::fmt::Write as _;

use crate::{Dfg, Op};

impl Dfg {
    /// Renders the graph in Graphviz DOT syntax.
    ///
    /// Inputs are boxes, constants are plain text, arithmetic ops are
    /// ellipses, delays are diamonds; outputs get labelled double circles.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph dfg {\n  rankdir=LR;\n");
        for (id, node) in self.nodes() {
            let label = match node.op() {
                Op::Input(i) => format!("{} (in{})", self.node_name(id).unwrap_or("input"), i),
                Op::Const(c) => format!("{c}"),
                op => match self.node_name(id) {
                    Some(n) => format!("{} [{}]", op.mnemonic(), n),
                    None => op.mnemonic().to_string(),
                },
            };
            let shape = match node.op() {
                Op::Input(_) => "box",
                Op::Const(_) => "plaintext",
                Op::Delay => "diamond",
                _ => "ellipse",
            };
            let _ = writeln!(out, "  {id} [label=\"{label}\", shape={shape}];");
            for (slot, a) in node.args().iter().enumerate() {
                let _ = writeln!(out, "  {a} -> {id} [label=\"{slot}\"];");
            }
        }
        for (name, id) in self.outputs() {
            let _ = writeln!(
                out,
                "  out_{name} [label=\"{name}\", shape=doublecircle];\n  {id} -> out_{name};"
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::DfgBuilder;

    #[test]
    fn dot_contains_all_nodes_and_outputs() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay(x);
        let y = b.add(x, d);
        b.output("y", y);
        let g = b.build().unwrap();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph dfg {"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("out_y"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
